// Chunked executor for ecdag DAGs (see dag.h).
//
// Maps a FlowPlan onto the staged data-path pipeline: one fan-out lane per
// gather stream (leaf->aggregator raws, then aggregator->root partials, in
// store-and-forward order per chunk), the compiled GF(2^8) partial-sum
// program as the compute stage on the calling thread, and the root->output
// scatter as the upload stage — so for chunk c the rack gathers of chunk
// c+1 overlap the compute of chunk c and the delivery of chunk c-1, exactly
// like the legacy encode pipeline but with the fan-in spread across racks.
//
// The executor moves no bytes itself: callers inject the transport through
// plain function hooks, so the same code drives the MiniCfs testbed
// (ThrottledTransport), unit tests (counting stubs), and anything else,
// without this library depending on cfs.
//
// Byte-identity contract: the compiled program computes output j as
// XOR-of-partial-sums of coeff × input terms.  GF(2^8) addition is XOR —
// associative and commutative — so the result is byte-identical to the
// single-node sum regardless of how racks group the terms, and chunked
// evaluation is byte-identical because every kernel is bytewise.
#pragma once

#include <functional>

#include "common/units.h"
#include "ecdag/dag.h"
#include "erasure/rs.h"

namespace ear::ecdag {

// Moves `len` bytes src -> dst (blocking; may throw to abort the run).
using TransferFn = std::function<void(NodeId src, NodeId dst, Bytes len)>;
// Charges a local disk read of `len` bytes on `node`.
using LocalReadFn = std::function<void(NodeId node, Bytes len)>;

struct ExecOptions {
  Bytes unit_size = 0;         // bytes per input/output symbol
  Bytes preferred_chunk = 0;   // pipeline granularity; 0 => one-shot
};

struct ExecStats {
  int64_t cross_rack_bytes = 0;  // bytes shipped over the core switch
  int64_t intra_rack_bytes = 0;
  int64_t transfers = 0;         // deduplicated hops x chunks issued
  int64_t partial_chunks = 0;    // rack-partial chunk computations
  int lanes = 0;                 // gather streams run as pipeline lanes
};

// Executes `dag` over real bytes: inputs[i] / outputs[j] correspond to
// EcDag::input_nodes / output_nodes and must all be opts.unit_size long.
// Transfers abort the pipeline on throw (the exception is rethrown after
// the lanes drain).  local_read is charged for inputs consumed on the node
// storing them, as the single-node encoder charges its disk reads; it may
// be null, and such inputs then cost nothing.
ExecStats execute(const EcDag& dag, const Topology& topo,
                  const std::vector<erasure::BlockView>& inputs,
                  const std::vector<erasure::MutBlockView>& outputs,
                  const TransferFn& transfer, const LocalReadFn& local_read,
                  const ExecOptions& opts);

}  // namespace ear::ecdag
