#include "ecdag/executor.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "datapath/pipeline.h"
#include "gf256/gf256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ear::ecdag {

namespace {

// One XOR term of an aggregate: a source buffer plus the GF multiplier the
// wire program applies before accumulating.
struct Term {
  int fetch = -1;    // >= 0: inputs[fetch] window
  int scratch = -1;  // >= 0: an earlier aggregate's scratch buffer
  uint8_t coeff = 1;
};

// An aggregate lowered for chunked execution: accumulate `terms` into either
// an output window (`output` >= 0) or a per-node scratch buffer.
struct Step {
  int node = -1;
  int output = -1;
  std::vector<Term> terms;
};

}  // namespace

ExecStats execute(const EcDag& dag, const Topology& topo,
                  const std::vector<erasure::BlockView>& inputs,
                  const std::vector<erasure::MutBlockView>& outputs,
                  const TransferFn& transfer, const LocalReadFn& local_read,
                  const ExecOptions& opts) {
  if (static_cast<int>(inputs.size()) != dag.n_in ||
      static_cast<int>(outputs.size()) != dag.n_out) {
    throw std::invalid_argument("ecdag::execute: buffer counts mismatch dag");
  }
  if (opts.unit_size <= 0) {
    throw std::invalid_argument("ecdag::execute: unit_size must be positive");
  }

  static obs::Counter* ctr_execs =
      &obs::Registry::instance().counter("ecdag.executions");
  static obs::Counter* ctr_partials =
      &obs::Registry::instance().counter("ecdag.partial_chunks");
  static obs::Counter* ctr_cross =
      &obs::Registry::instance().counter("ecdag.cross_rack_bytes");
  static obs::Counter* ctr_intra =
      &obs::Registry::instance().counter("ecdag.intra_rack_bytes");

  const FlowPlan plan = plan_flows(dag, topo);
  const datapath::ChunkPlan cp{opts.unit_size, opts.preferred_chunk};
  const int chunks = cp.count();

  // ---- Compile the DAG into the per-chunk compute program. --------------
  // Aggregates whose sole consumer is an Output accumulate straight into the
  // destination window (zero-copy); every other aggregate gets a chunk-sized
  // scratch buffer.  MulAdd nodes fold into their consumer as a coefficient.
  std::vector<int> sole_output(dag.nodes.size(), -1);
  std::vector<int> consumers(dag.nodes.size(), 0);
  for (size_t idx = 0; idx < dag.nodes.size(); ++idx) {
    for (const int child : dag.nodes[idx].children) {
      consumers[static_cast<size_t>(child)] += 1;
      if (dag.nodes[idx].op == DagOp::kOutput) {
        sole_output[static_cast<size_t>(child)] = dag.nodes[idx].output;
      }
    }
  }

  const size_t max_chunk = cp.len(0);
  std::map<int, std::vector<uint8_t>> scratch;  // aggregate node -> buffer
  std::vector<Step> program;
  const auto term_of = [&](int child_idx) {
    const DagNode& child = dag.nodes[static_cast<size_t>(child_idx)];
    Term t;
    switch (child.op) {
      case DagOp::kFetch:
        t.fetch = child.input;
        break;
      case DagOp::kMulAdd: {
        t.coeff = child.coeff;
        const DagNode& src = dag.nodes[static_cast<size_t>(child.children[0])];
        if (src.op == DagOp::kFetch) {
          t.fetch = src.input;
        } else {
          t.scratch = child.children[0];
        }
        break;
      }
      case DagOp::kAggregate:
        t.scratch = child_idx;
        break;
      case DagOp::kOutput:
        throw std::invalid_argument("ecdag::execute: output used as input");
    }
    return t;
  };
  for (size_t idx = 0; idx < dag.nodes.size(); ++idx) {
    const DagNode& node = dag.nodes[idx];
    if (node.op != DagOp::kAggregate) continue;
    Step step;
    step.node = static_cast<int>(idx);
    if (consumers[idx] == 1 && sole_output[idx] >= 0) {
      step.output = sole_output[idx];
    } else {
      scratch[static_cast<int>(idx)].resize(max_chunk);
    }
    step.terms.reserve(node.children.size());
    for (const int child : node.children) step.terms.push_back(term_of(child));
    program.push_back(std::move(step));
  }

  // Validate the buffers the program actually touches.
  for (const Step& step : program) {
    for (const Term& t : step.terms) {
      if (t.fetch >= 0 &&
          inputs[static_cast<size_t>(t.fetch)].size() !=
              static_cast<size_t>(opts.unit_size)) {
        throw std::invalid_argument("ecdag::execute: input size mismatch");
      }
    }
  }
  for (const auto& out : outputs) {
    if (out.size() != static_cast<size_t>(opts.unit_size)) {
      throw std::invalid_argument("ecdag::execute: output size mismatch");
    }
  }

  // ---- Transport lanes: one gather stream per source rack, plus an -------
  // optional disk-read lane for inputs consumed where they live.
  ExecStats stats;
  std::atomic<int64_t> cross_bytes{0};
  std::atomic<int64_t> intra_bytes{0};
  std::atomic<int64_t> transfers{0};

  std::vector<std::function<void(int)>> lanes;
  for (const auto& stream : plan.streams) {
    lanes.push_back([&, &stream = stream](int c) {
      const Bytes len = static_cast<Bytes>(cp.len(c));
      for (const Hop& hop : stream) {
        transfer(hop.src, hop.dst, len);
        (hop.cross ? cross_bytes : intra_bytes)
            .fetch_add(len, std::memory_order_relaxed);
        transfers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  if (local_read && !plan.local_inputs.empty()) {
    lanes.push_back([&](int c) {
      const Bytes len = static_cast<Bytes>(cp.len(c));
      for (const int input : plan.local_inputs) {
        local_read(dag.input_nodes[static_cast<size_t>(input)], len);
      }
    });
  }

  const auto compute = [&](int c) {
    const size_t off = cp.offset(c);
    const size_t len = cp.len(c);
    // Each step's term list runs as one multi-source kernel sweep: the
    // destination window is written once per step instead of once per term.
    std::vector<const uint8_t*> srcs;
    std::vector<uint8_t> coeffs;
    for (const Step& step : program) {
      erasure::MutBlockView dst =
          step.output >= 0
              ? outputs[static_cast<size_t>(step.output)].subspan(off, len)
              : erasure::MutBlockView(scratch[step.node]).subspan(0, len);
      srcs.clear();
      coeffs.clear();
      srcs.reserve(step.terms.size());
      coeffs.reserve(step.terms.size());
      for (const Term& t : step.terms) {
        // Fetch windows track the chunk offset; scratch buffers are
        // chunk-local and always start at 0.
        srcs.push_back(t.fetch >= 0
                           ? inputs[static_cast<size_t>(t.fetch)].data() + off
                           : scratch[t.scratch].data());
        coeffs.push_back(t.coeff);
      }
      gf::mul_add_multi(srcs, coeffs, dst, /*accumulate=*/false);
      if (step.output < 0) {
        stats.partial_chunks += 1;
      }
    }
  };

  std::function<void(int)> upload;
  if (!plan.scatter.empty()) {
    upload = [&](int c) {
      const Bytes len = static_cast<Bytes>(cp.len(c));
      for (const Hop& hop : plan.scatter) {
        transfer(hop.src, hop.dst, len);
        (hop.cross ? cross_bytes : intra_bytes)
            .fetch_add(len, std::memory_order_relaxed);
        transfers.fetch_add(1, std::memory_order_relaxed);
      }
    };
  }

  {
    obs::Span span("ecdag.execute", "ecdag");
    span.arg("chunks", chunks);
    span.arg("streams", static_cast<int>(plan.streams.size()));
    span.arg("cross_hops", plan.cross_hops);
    // Every input local to the root: one idle lane.
    const int n_lanes = std::max(static_cast<int>(lanes.size()), 1);
    datapath::StagedPipeline::run_fanout(
        chunks, n_lanes,
        [&lanes](int l, int c) {
          if (!lanes.empty()) lanes[static_cast<size_t>(l)](c);
        },
        compute, upload);
  }

  stats.cross_rack_bytes = cross_bytes.load();
  stats.intra_rack_bytes = intra_bytes.load();
  stats.transfers = transfers.load();
  stats.lanes = static_cast<int>(lanes.size());
  ctr_execs->add(1);
  ctr_partials->add(stats.partial_chunks);
  ctr_cross->add(stats.cross_rack_bytes);
  ctr_intra->add(stats.intra_rack_bytes);
  return stats;
}

}  // namespace ear::ecdag
