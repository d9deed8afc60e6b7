// Cluster state snapshots — the NameNode FsImage role, extended to a full
// in-process cluster image so tests and long experiments can save and
// restore a loaded cluster.
//
// Format: a little-endian binary stream,
//   magic "EARCKPT7" (the only version: a reader rejects any other by name)
//   cluster config (topology, code and codec family with its alpha,
//   replication, block size, namespace shards, cache bytes, block-store
//   backend, directory and segment size, ecdag flag)
//   block locations (block id -> node list)
//   stripe map (data/parity block lists, encoded flag, stripe positions)
//   per-node block stores (block id -> bytes)
//   CRC-32 (common/crc32.h) of every byte before it
//
// The loader treats the image as untrusted: a bad checksum, a field out of
// range, a count or length larger than the bytes left, or a config the
// cluster cannot be built from all throw std::runtime_error before
// anything is sized from them.
//
// Restore builds a MiniCfs whose reads (including degraded reads and
// repair) behave identically to the snapshotted one.  Placement-policy
// internals (open stripes under assembly) are intentionally NOT persisted:
// like a NameNode restart, un-sealed stripes restart assembly from scratch,
// while sealed/encoded state is fully recovered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfs/minicfs.h"

namespace ear::cfs {

// Serializes the cluster into a byte buffer.
std::vector<uint8_t> save_checkpoint(const MiniCfs& cfs);

// Reconstructs a read-only equivalent cluster from a checkpoint.  The
// returned MiniCfs serves reads, degraded reads, repair and failure
// injection; writing new blocks and encoding further stripes continue from
// a fresh placement-policy state.
std::unique_ptr<MiniCfs> load_checkpoint(const std::vector<uint8_t>& image,
                                         std::unique_ptr<Transport> transport);

// Convenience file wrappers.
bool save_checkpoint_file(const MiniCfs& cfs, const std::string& path);
std::unique_ptr<MiniCfs> load_checkpoint_file(
    const std::string& path, std::unique_ptr<Transport> transport);

}  // namespace ear::cfs
