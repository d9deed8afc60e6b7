#include "sim/encode_flow.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "erasure/matrix.h"
#include "obs/trace.h"

namespace ear::sim {

std::vector<GatherItem> direct_gather(const std::vector<NodeId>& sources,
                                      NodeId encoder) {
  std::vector<GatherItem> gather;
  for (const NodeId src : sources) {
    gather.push_back(src == encoder
                         ? GatherItem{encoder, {}}
                         : GatherItem{kInvalidNode, {{{src, encoder}}}});
  }
  return gather;
}

std::vector<GatherItem> ecdag_gather(const std::vector<NodeId>& sources,
                                     const std::vector<NodeId>& parity,
                                     NodeId encoder, const Topology& topo) {
  // No real bytes move, so only the coefficient structure matters: RS
  // parity rows are dense, as an all-ones matrix is.
  erasure::Matrix dense(static_cast<int>(parity.size()),
                        static_cast<int>(sources.size()));
  for (int j = 0; j < dense.rows(); ++j) {
    for (int i = 0; i < dense.cols(); ++i) dense.at(j, i) = 1;
  }
  const ecdag::FlowPlan flows = ecdag::plan_flows(
      ecdag::build_aggregation_dag(dense, sources, parity, encoder, topo),
      topo);
  std::vector<GatherItem> gather;
  for (const int input : flows.local_inputs) {
    gather.push_back(GatherItem{sources[static_cast<size_t>(input)], {}});
  }
  for (const auto& stream : flows.streams) {
    std::vector<ecdag::Hop> leaf, root;
    for (const ecdag::Hop& hop : stream) {
      (hop.dst == encoder ? root : leaf).push_back(hop);
    }
    GatherItem& item = gather.emplace_back();
    for (std::vector<ecdag::Hop>* level : {&leaf, &root}) {
      if (!level->empty()) item.levels.push_back(std::move(*level));
    }
  }
  return gather;
}

namespace {

// One stripe's ladder.  Pending engine and network callbacks hold the only
// references, so the run frees once its last parity chunk has landed.
// Each stage sets its count of outstanding completions before issuing
// anything, so only the last completion advances the ladder.
class EncodeRun : public std::enable_shared_from_this<EncodeRun> {
 public:
  EncodeRun(Engine& engine, Network& network, EncodeFlow flow,
            std::function<void()> done)
      : engine_(engine),
        network_(network),
        flow_(std::move(flow)),
        done_(std::move(done)),
        gather_begin_(engine.now()) {
    for (const NodeId dst : flow_.parity) {
      if (dst != flow_.encoder) uploads_.push_back({flow_.encoder, dst});
    }
  }

  // Issues every gather item of chunk `gathered_`.
  void start_gather() {
    items_left_ = flow_.gather.size();
    for (size_t i = 0; i < flow_.gather.size(); ++i) {
      const NodeId disk = flow_.gather[i].disk;
      if (disk == kInvalidNode) {
        run_level(i, 0);
      } else {
        network_.start_disk_read(disk, chunk_len(gathered_),
                                 [self = shared_from_this()] {
                                   self->item_done();
                                 });
      }
    }
  }

 private:
  Bytes chunk_len(int c) const {
    const Bytes rem = flow_.block_size % flow_.chunks;
    return flow_.block_size / flow_.chunks + (c < rem ? 1 : 0);
  }

  void trace(const char* name, Seconds begin) const {
    if (flow_.trace_track < 0 || !obs::trace_enabled()) return;
    obs::sim_complete(name, "sim.encode", begin, engine_.now(),
                      flow_.trace_track, {{"stripe", flow_.trace_stripe}});
  }

  // Moves `len` bytes over every hop at once; `then` runs when the last
  // lands, or at the next event when there is none.
  void transfer_all(const std::vector<ecdag::Hop>& hops, Bytes len,
                    std::function<void()> then) {
    if (hops.empty()) {
      engine_.schedule_in(0.0, std::move(then));
      return;
    }
    auto left = std::make_shared<size_t>(hops.size());
    for (const ecdag::Hop& hop : hops) {
      network_.start_transfer(hop.src, hop.dst, len, [left, then] {
        if (--*left == 0) then();
      });
    }
  }

  void run_level(size_t item, size_t level) {
    const auto& levels = flow_.gather[item].levels;
    if (level == levels.size()) {
      item_done();
      return;
    }
    transfer_all(levels[level], chunk_len(gathered_),
                 [self = shared_from_this(), item, level] {
                   self->run_level(item, level + 1);
                 });
  }

  void item_done() {
    if (--items_left_ == 0) gather_done();
  }

  void gather_done() {
    if (++gathered_ < flow_.chunks) {
      start_gather();
    } else {
      trace("sim.encode.download", gather_begin_);
    }
    maybe_compute();
  }

  void maybe_compute() {
    if (computing_ || computed_ >= gathered_) return;
    computing_ = true;
    if (computed_ == 0) compute_begin_ = engine_.now();
    engine_.schedule_in(
        flow_.compute_seconds / static_cast<double>(flow_.chunks),
        [self = shared_from_this()] {
          self->computing_ = false;
          if (++self->computed_ == self->flow_.chunks) {
            self->trace("sim.encode.compute", self->compute_begin_);
          }
          self->maybe_compute();
          self->maybe_upload();
        });
  }

  void maybe_upload() {
    if (uploading_ || uploaded_ >= computed_) return;
    uploading_ = true;
    if (uploaded_ == 0) upload_begin_ = engine_.now();
    transfer_all(uploads_, chunk_len(uploaded_), [self = shared_from_this()] {
      self->chunk_uploaded();
    });
  }

  void chunk_uploaded() {
    uploading_ = false;
    if (++uploaded_ < flow_.chunks) {
      maybe_upload();
      return;
    }
    trace("sim.encode.upload", upload_begin_);
    done_();
  }

  Engine& engine_;
  Network& network_;
  const EncodeFlow flow_;
  const std::function<void()> done_;
  std::vector<ecdag::Hop> uploads_;  // encoder -> each remote parity node
  size_t items_left_ = 0;            // gather items of the current chunk
  int gathered_ = 0, computed_ = 0, uploaded_ = 0;  // chunks per stage
  bool computing_ = false, uploading_ = false;
  Seconds gather_begin_, compute_begin_ = 0, upload_begin_ = 0;
};

}  // namespace

void run_encode_flow(Engine& engine, Network& network, EncodeFlow flow,
                     std::function<void()> done) {
  assert(flow.chunks >= 1 && !flow.gather.empty());
  std::make_shared<EncodeRun>(engine, network, std::move(flow),
                              std::move(done))
      ->start_gather();
}

}  // namespace ear::sim
