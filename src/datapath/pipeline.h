// Staged chunked pipeline — overlapped fetch → compute → upload for the
// encode and degraded-read data paths (see DESIGN.md "Data path").
//
// The paper's encoder (§IV-C) downloads k blocks, computes parity, then
// uploads it, each stage waiting for the previous one.  RapidRAID-style
// pipelining instead streams the block in chunks: the GF(2^8) math for
// chunk c runs while chunk c+1 is still in flight on the transport, and
// parity chunk c uploads while chunk c+2 is being fetched.  Fetch and
// upload use disjoint links (the encoder's down- and up-link), so the
// three stages genuinely overlap in real time under ThrottledTransport.
//
// StagedPipeline::run_fanout pulls sources to one node over concurrent
// lanes and overlaps them with compute and upload at chunk granularity
// (encode runs it with one lane); run_chain streams partial sums through
// one or more chains of helpers so no link carries more than one block
// per chain; ChunkPlan
// slices a block into transport-sized windows; the
// `datapath.chunks_in_flight` gauge records the high-water fetch/compute
// distance, proving the overlap.  Stages, fan-out
// lanes and chain moves run as tasks on the shared WorkerPool
// (datapath/worker_pool.h), so a call costs a few task hand-offs, not the
// creation and join of a thread per stage or lane.
//
// The chunked computation must be byte-identical to the one-shot path:
// callers pass windowed views of the same buffers, and GF(2^8) row
// operations are bytewise, so chunking never changes the result.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/units.h"

namespace ear::datapath {

// Slices [0, block_size) into windows of at most `chunk` bytes.
// chunk <= 0 (or >= block_size) means a single window: the one-shot path.
struct ChunkPlan {
  Bytes block_size = 0;
  Bytes chunk = 0;

  int count() const {
    if (block_size <= 0) return 1;
    if (chunk <= 0 || chunk >= block_size) return 1;
    return static_cast<int>((block_size + chunk - 1) / chunk);
  }
  size_t offset(int c) const {
    return static_cast<size_t>(c) * static_cast<size_t>(effective_chunk());
  }
  size_t len(int c) const {
    const size_t begin = offset(c);
    const size_t total = static_cast<size_t>(block_size);
    const size_t step = static_cast<size_t>(effective_chunk());
    return begin + step <= total ? step : total - begin;
  }

 private:
  Bytes effective_chunk() const {
    return (chunk <= 0 || chunk >= block_size) ? block_size : chunk;
  }
};

// Single-producer progress ladder: the producer publishes "chunks [0, upto)
// are ready"; consumers block until the chunk they need is ready.  abort()
// releases every waiter with a failure indication.
class ChunkLadder {
 public:
  void publish(int upto);
  // Returns false iff the ladder was aborted before `upto` was reached.
  bool wait_for(int upto);
  void abort();
  int ready() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int ready_ = 0;
  bool aborted_ = false;
};

class StagedPipeline {
 public:
  // Fan-in pipeline for encode, sub-block degraded reads and DAG
  // execution: `lanes` fetch lanes run concurrently, each as its own
  // shared-pool task under the caller's QoS context, and fetch(lane, c) is
  // called once per (lane, chunk).  Each lane streams its chunks
  // independently — a lane stuck behind a congested cross-rack link does
  // not head-of-line-block the intra-rack lanes — and compute(c) runs on
  // the calling thread as soon as every lane has delivered chunk c (the
  // rung c of every lane's ladder has landed), so the math for chunk c
  // overlaps the transfer of chunk c+1.  An optional `upload` stage runs
  // as its own pool task: upload(c) starts as soon as compute(c) has
  // finished, so result chunks leave while later rungs are still arriving
  // (encode pushes parity chunks out this way).  The caller may itself be
  // a pool task.
  //
  // Lane *concurrency* is bounded: at most kMaxActiveLanes lanes across the
  // whole process move bytes at once, and surplus lanes wait their turn.
  // The gate cannot deadlock: a lane holds a slot only while fetching,
  // never while waiting on another lane.
  //
  // One lane and one chunk run everything inline on the caller: the
  // one-shot path has no hand-off at all.  chunks <= 1 with lanes > 1
  // still runs every lane (each covers a disjoint share of the work); only
  // the ladder depth is trivial.
  //
  // `upload` must not throw.  The first lane error aborts every stage
  // (including the uploader) and is rethrown after every task of the call
  // has drained; a compute error likewise leaves only after the tasks have
  // drained.
  static void run_fanout(int chunks, int lanes,
                         const std::function<void(int, int)>& fetch,
                         const std::function<void(int)>& compute,
                         const std::function<void(int)>& upload = nullptr);

  // Chain variant for whole-block reconstruction ("repair pipelining"):
  // one or more chains of helpers converge at the reader.  Chain j has
  // chain_hops[j] >= 1 hops, and hops are numbered consecutively across
  // the chains: chain 0 owns hops [0, chain_hops[0]), chain 1 the next
  // chain_hops[1], and so on.  Within a chain, hop h moves chunk c of its
  // running partial sum one link further (the chain's last hop delivers it
  // to the reader).  hop(h, c) is called only after hop h-1 of the same
  // chain has moved chunk c and hop h has moved chunk c-1, so chunk c
  // trails chunk c-1 down the chain, each link carries its chunks in order,
  // and each link carries one block, except that the reader's down-link
  // carries one per chain (not one per helper).  compute(c) runs on the
  // caller once every chain has delivered chunk c.
  //
  // One chain costs about (hops + chunks - 1) chunk-times; p chains of
  // about hops/p hops each cost about max(p * chunks, hops/p + chunks - 1),
  // since the reader's down-link carries one block per chain.  A single
  // chain suits many chunks, parallel chains few (the partial-parallel
  // repair shape; one chain per helper is the star).
  //
  // The moves run on one shared-pool task per (chain, chunk), which walks
  // its chunk down every hop of its chain: over an instant transport a
  // chunk crosses a whole chain on one thread before the reader decodes it.
  //
  // Hand-offs are work-conserving: around each hop(h, c) the task sets its
  // thread's hand-off time (common/wake_record.h), when chunk c's bytes
  // existed at hop h's sender.  For a chain's first hop that is the moment
  // run_chain was called, so the caller must hold every source buffer by
  // then (degraded reads take them all before the wire); for a later hop it
  // is when the task's own previous hop landed the chunk.  A throttled
  // transport starts the hop at max(that time, every link of its path
  // free), so the emulated links do not idle while pool threads wake up to
  // forward a chunk, and a lone chain runs at about its wire time.  A hop
  // should only move bytes: time it spends before its transfer is not
  // kept.  The hand-off is cleared after every hop, even one that throws.
  //
  // Gate rule: a task takes a kMaxActiveLanes slot only around each
  // single-chunk hop(h, c) call, never while it waits for a predecessor.
  // A task holding its slot while waiting could, with more than
  // kMaxActiveLanes tasks in flight, fill every slot with waiters whose
  // predecessors can never get one.
  //
  // One chain of one chunk runs its hops in order on the caller, then
  // compute: no tasks, no thread hand-off (its hops are still dated as
  // above).  Errors as in run_fanout(): the first
  // hop error aborts every chain and is rethrown after every task of the
  // call has drained; a compute error leaves only after the tasks have
  // drained.
  static void run_chain(int chunks, const std::vector<int>& chain_hops,
                        const std::function<void(int, int)>& hop,
                        const std::function<void(int)>& compute);

  // Process-wide cap on lanes and chain hops concurrently moving bytes.
  static constexpr int kMaxActiveLanes = 64;
};

}  // namespace ear::datapath
