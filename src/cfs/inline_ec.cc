// Write-path (synchronous) erasure coding — MiniCfs::write_encoded_stripe.
//
// The client computes the n - k parity blocks locally and streams all n
// blocks straight to their final locations, skipping replication and the
// later encoding pass entirely.  Placement follows the same rack-level
// fault-tolerance rule as encoded stripes: n distinct nodes in n distinct
// racks (c = 1 semantics; requires R >= n).
#include <stdexcept>

#include "cfs/minicfs.h"
#include "datapath/worker_pool.h"
#include "obs/trace.h"
#include "placement/replica_layout.h"
#include "qos/qos.h"

namespace ear::cfs {

StripeId MiniCfs::write_encoded_stripe(
    const std::vector<std::span<const uint8_t>>& data,
    std::optional<NodeId> writer) {
  obs::Span span("cfs.write_encoded_stripe", "cfs");
  qos::OpScope op(qos::TrafficClass::kForegroundWrite);
  const int k = codec_->k();
  const int n = codec_->n();
  const int m = codec_->m();
  if (static_cast<int>(data.size()) != k) {
    throw std::invalid_argument("write_encoded_stripe: need exactly k blocks");
  }
  for (const auto& block : data) {
    if (static_cast<Bytes>(block.size()) != config_.block_size) {
      throw std::invalid_argument("write_encoded_stripe: bad block size");
    }
  }
  if (topo_.rack_count() < n) {
    throw std::invalid_argument(
        "write_encoded_stripe: need at least n racks for c = 1 placement");
  }

  TransferScope in_flight(*this);

  // Compute parity at the writer.
  std::vector<datapath::MutableBlockBuffer> parity;
  parity.reserve(static_cast<size_t>(m));
  {
    std::vector<erasure::BlockView> dv(data.begin(), data.end());
    std::vector<erasure::MutBlockView> pv;
    pv.reserve(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      // encode writes every parity byte.
      parity.push_back(datapath::MutableBlockBuffer::uninitialized(
          static_cast<size_t>(config_.block_size)));
      pv.emplace_back(parity.back().span());
    }
    codec_->encode(dv, pv);
  }

  // Placement: n random distinct racks, one random node each.
  std::vector<NodeId> nodes;
  StripeId stripe;
  std::vector<BlockId> block_ids(static_cast<size_t>(n));
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    const auto racks = rng_.sample_without_replacement(
        static_cast<size_t>(topo_.rack_count()), static_cast<size_t>(n));
    for (const size_t r : racks) {
      nodes.push_back(
          random_node_in_rack(topo_, static_cast<RackId>(r), rng_));
    }
  }
  stripe = next_inline_stripe_id_.fetch_sub(1, std::memory_order_relaxed);
  const BlockId id_base = next_block_id_.fetch_add(n, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    block_ids[static_cast<size_t>(i)] = id_base + i;
  }

  // Stream all n blocks from the writer concurrently (the client pushes
  // each block to its node).  A remote (off-cluster) client's ingress is
  // not modeled, matching write_block's behaviour.
  const NodeId src = writer.value_or(kInvalidNode);
  if (src != kInvalidNode) {
    datapath::TaskGroup pushes(datapath::WorkerPool::shared());
    for (int i = 0; i < n; ++i) {
      pushes.submit([this, src, &nodes, i] {
        transport_->transfer(src, nodes[static_cast<size_t>(i)],
                             config_.block_size);
      });
    }
    pushes.wait();
  }
  for (int i = 0; i < k; ++i) {
    store(nodes[static_cast<size_t>(i)], block_ids[static_cast<size_t>(i)],
          datapath::BlockBuffer::copy_of(data[static_cast<size_t>(i)]));
  }
  for (int j = 0; j < m; ++j) {
    store(nodes[static_cast<size_t>(k + j)],
          block_ids[static_cast<size_t>(k + j)],
          std::move(parity[static_cast<size_t>(j)]).seal());
  }

  ns_.commit_inline_stripe(stripe, block_ids, nodes, k);
  return stripe;
}

}  // namespace ear::cfs
