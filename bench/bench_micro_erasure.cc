// Microbenchmarks of the coding substrates: GF(2^8) kernels and the
// Reed-Solomon codec (both constructions), via google-benchmark.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "erasure/clay.h"
#include "erasure/codec.h"
#include "erasure/crs.h"
#include "erasure/hitchhiker.h"
#include "erasure/lrc.h"
#include "erasure/rs.h"
#include "gf256/gf256.h"
#include "gf256/kernel.h"

namespace {

using namespace ear;

std::vector<uint8_t> random_bytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

// Every run label carries the dispatched GF(2^8) kernel so before/after
// comparisons (EAR_GF_KERNEL=scalar vs auto) stay attributable in the CSV.
std::string kernel_label(const std::string& extra = "") {
  const std::string k = std::string("kernel_") + gf::kernel().name;
  return extra.empty() ? k : extra + "|" + k;
}

void BM_GfMulAdd(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const auto src = random_bytes(size, 1);
  auto dst = random_bytes(size, 2);
  for (auto _ : state) {
    gf::mul_add(0x53, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  state.SetLabel(kernel_label());
}
BENCHMARK(BM_GfMulAdd)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_GfXorAdd(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const auto src = random_bytes(size, 3);
  auto dst = random_bytes(size, 4);
  for (auto _ : state) {
    gf::xor_add(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  state.SetLabel(kernel_label());
}
BENCHMARK(BM_GfXorAdd)->Arg(65536)->Arg(1 << 20);

void rs_encode_bench(benchmark::State& state,
                     erasure::Construction construction) {
  const int k = static_cast<int>(state.range(0));
  const int n = k + 4;
  const size_t block = 256 * 1024;
  const erasure::RSCode code(n, k, construction);

  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < k; ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i + 10)));
  }
  parity.assign(static_cast<size_t>(n - k), std::vector<uint8_t>(block));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());

  for (auto _ : state) {
    code.encode(dv, pv);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block) * k);
  state.SetLabel(kernel_label());
}

void BM_RsEncodeCauchy(benchmark::State& state) {
  rs_encode_bench(state, erasure::Construction::kCauchy);
}
BENCHMARK(BM_RsEncodeCauchy)->Arg(4)->Arg(8)->Arg(10)->Arg(12);

void BM_RsEncodeVandermonde(benchmark::State& state) {
  rs_encode_bench(state, erasure::Construction::kVandermonde);
}
BENCHMARK(BM_RsEncodeVandermonde)->Arg(10);

// RS(14,10) through the ErasureCodec interface the data path calls: one
// 256 KiB encode_chunk window of every data block (a pipeline chunk), so the
// fused-sweep vs row-loop gap shows as EAR_GF_KERNEL=gfni vs avx2.
void BM_RsEncodeChunk14x10(benchmark::State& state) {
  constexpr size_t kChunk = 256 * 1024;
  constexpr size_t kBlock = 4 * kChunk;
  const auto codec = erasure::make_codec(erasure::CodecFamily::kRS, 14, 10);
  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < codec->k(); ++i) {
    data.push_back(random_bytes(kBlock, static_cast<uint64_t>(i + 30)));
  }
  parity.assign(static_cast<size_t>(codec->m()), std::vector<uint8_t>(kBlock));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
  size_t offset = 0;
  for (auto _ : state) {
    codec->encode_chunk(dv, pv, offset, kChunk);
    offset = (offset + kChunk) % kBlock;
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kChunk) * codec->k());
  state.SetLabel(kernel_label());
}
BENCHMARK(BM_RsEncodeChunk14x10);

void BM_RsDecodeWorstCase(benchmark::State& state) {
  // All n - k data blocks erased; rebuilt from the parity set.
  const int k = static_cast<int>(state.range(0));
  const int n = k + 4;
  const size_t block = 256 * 1024;
  const erasure::RSCode code(n, k);

  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < k; ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i + 50)));
  }
  parity.assign(static_cast<size_t>(n - k), std::vector<uint8_t>(block));
  {
    std::vector<erasure::BlockView> dv(data.begin(), data.end());
    std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
    code.encode(dv, pv);
  }

  // Available: data blocks 4..k-1 plus all parity.
  std::vector<int> ids;
  std::vector<erasure::BlockView> available;
  for (int i = 4; i < k; ++i) {
    ids.push_back(i);
    available.emplace_back(data[static_cast<size_t>(i)]);
  }
  for (int j = 0; j < n - k; ++j) {
    ids.push_back(k + j);
    available.emplace_back(parity[static_cast<size_t>(j)]);
  }
  std::vector<std::vector<uint8_t>> out(4, std::vector<uint8_t>(block));
  std::vector<erasure::MutBlockView> ov(out.begin(), out.end());

  for (auto _ : state) {
    benchmark::DoNotOptimize(
        code.reconstruct(ids, available, {0, 1, 2, 3}, ov));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block) * 4);
  state.SetLabel(kernel_label());
}
BENCHMARK(BM_RsDecodeWorstCase)->Arg(8)->Arg(10)->Arg(12);


void BM_CrsEncodeXorOnly(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = k + 4;
  const size_t block = 256 * 1024;
  const erasure::CRSCode code(n, k);

  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < k; ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i + 90)));
  }
  parity.assign(static_cast<size_t>(n - k), std::vector<uint8_t>(block));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());

  for (auto _ : state) {
    code.encode(dv, pv);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block) * k);
  // As the run label, not a custom counter: the CSV reporter aborts when a
  // counter appears in some runs but not others.
  state.SetLabel(
      kernel_label(std::to_string(code.schedule_xor_count()) + "_xors"));
}
BENCHMARK(BM_CrsEncodeXorOnly)->Arg(8)->Arg(10)->Arg(12);

void BM_LrcEncode(benchmark::State& state) {
  const size_t block = 256 * 1024;
  const erasure::LRCCode code(12, 2, 2);
  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < code.k(); ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i + 120)));
  }
  parity.assign(static_cast<size_t>(code.l() + code.g()),
                std::vector<uint8_t>(block));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
  for (auto _ : state) {
    code.encode(dv, pv);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block) * code.k());
  state.SetLabel(kernel_label());
}
BENCHMARK(BM_LrcEncode);

void BM_LrcLocalRepair(benchmark::State& state) {
  const size_t block = 256 * 1024;
  const erasure::LRCCode code(12, 2, 2);
  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < code.k(); ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i + 150)));
  }
  parity.assign(static_cast<size_t>(code.l() + code.g()),
                std::vector<uint8_t>(block));
  {
    std::vector<erasure::BlockView> dv(data.begin(), data.end());
    std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
    code.encode(dv, pv);
  }
  std::vector<std::vector<uint8_t>> all = data;
  all.insert(all.end(), parity.begin(), parity.end());
  const auto plan = code.repair_plan(0);
  std::vector<erasure::BlockView> sources;
  for (const int id : plan) sources.emplace_back(all[static_cast<size_t>(id)]);
  std::vector<uint8_t> out(block);
  for (auto _ : state) {
    code.repair(0, sources, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block));
  state.SetLabel(kernel_label());
}
BENCHMARK(BM_LrcLocalRepair);

// ------------------------------------------------ sub-packetized vector codes

// Shared scaffold: encodes a full stripe through the ErasureCodec interface,
// then (for the repair variants) executes the single-block RepairPlan of
// data block 0 with apply_plan_chunk over the gathered sub-block units.
struct VectorStripe {
  explicit VectorStripe(const erasure::ErasureCodec& codec, size_t block,
                        uint64_t seed)
      : block_size(block) {
    for (int i = 0; i < codec.k(); ++i) {
      blocks.push_back(
          random_bytes(block, seed + static_cast<uint64_t>(i)));
    }
    std::vector<erasure::BlockView> dv(blocks.begin(), blocks.end());
    std::vector<std::vector<uint8_t>> parity(
        static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
    std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
    codec.encode(dv, pv);
    for (auto& p : parity) blocks.push_back(std::move(p));
  }

  // Units the plan fetches, in plan order.
  std::vector<erasure::BlockView> plan_units(
      const erasure::RepairPlan& plan) const {
    const size_t sub = block_size / static_cast<size_t>(plan.alpha);
    std::vector<erasure::BlockView> units;
    for (const auto& src : plan.sources) {
      for (const int z : src.sub_blocks) {
        units.push_back(
            erasure::BlockView(blocks[static_cast<size_t>(src.id)])
                .subspan(static_cast<size_t>(z) * sub, sub));
      }
    }
    return units;
  }

  size_t block_size;
  std::vector<std::vector<uint8_t>> blocks;
};

void vector_encode_bench(benchmark::State& state,
                         const erasure::ErasureCodec& codec) {
  const size_t block = 256 * 1024;  // divisible by every alpha <= 256
  std::vector<std::vector<uint8_t>> data, parity;
  for (int i = 0; i < codec.k(); ++i) {
    data.push_back(random_bytes(block, static_cast<uint64_t>(i + 180)));
  }
  parity.assign(static_cast<size_t>(codec.m()), std::vector<uint8_t>(block));
  std::vector<erasure::BlockView> dv(data.begin(), data.end());
  std::vector<erasure::MutBlockView> pv(parity.begin(), parity.end());
  for (auto _ : state) {
    codec.encode(dv, pv);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block) * codec.k());
  state.SetLabel(kernel_label("alpha_" + std::to_string(codec.alpha())));
}

void vector_repair_bench(benchmark::State& state,
                         const erasure::ErasureCodec& codec) {
  const size_t block = 256 * 1024;
  const VectorStripe stripe(codec, block, 210);
  std::vector<int> available;
  for (int i = 1; i < codec.n(); ++i) available.push_back(i);
  erasure::RepairPlan plan;
  if (!codec.plan_repair(0, available, &plan)) {
    state.SkipWithError("plan_repair failed");
    return;
  }
  const auto units = stripe.plan_units(plan);
  std::vector<uint8_t> out(block);
  for (auto _ : state) {
    erasure::ErasureCodec::apply_plan_chunk(plan, units, out, 0,
                                            codec.sub_block_size(block));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block));
  // Network bytes the plan moves, in 1/100ths of a block (run label: the
  // CSV reporter aborts on counters that appear only in some runs).
  state.SetLabel(kernel_label(
      std::to_string(plan.bytes_read(static_cast<ear::Bytes>(block)) * 100 /
                     static_cast<int64_t>(block)) +
      "pct_block_read"));
}

void BM_ClayEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const erasure::ClayCode code(k + 4, k);
  vector_encode_bench(state, code);
}
BENCHMARK(BM_ClayEncode)->Arg(8)->Arg(10);

void BM_ClaySingleBlockRepair(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const erasure::ClayCode code(k + 4, k);
  vector_repair_bench(state, code);
}
BENCHMARK(BM_ClaySingleBlockRepair)->Arg(8)->Arg(10);

void BM_HitchhikerEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const erasure::HitchhikerCode code(k + 4, k);
  vector_encode_bench(state, code);
}
BENCHMARK(BM_HitchhikerEncode)->Arg(8)->Arg(10);

void BM_HitchhikerSingleBlockRepair(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const erasure::HitchhikerCode code(k + 4, k);
  vector_repair_bench(state, code);
}
BENCHMARK(BM_HitchhikerSingleBlockRepair)->Arg(8)->Arg(10);

}  // namespace

// Custom main so the micro bench speaks the same CLI as the scenario benches
// (--smoke, --csv-out <path>).  google-benchmark rejects unknown flags, so
// both are stripped before Initialize and rewritten as native flags:
// --csv-out maps to --benchmark_out/--benchmark_out_format=csv and --smoke
// caps per-benchmark time so CI finishes in seconds.
int main(int argc, char** argv) {
  std::vector<std::string> translated;
  translated.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      translated.emplace_back("--benchmark_min_time=0.01");
    } else if (std::strcmp(argv[i], "--csv-out") == 0 && i + 1 < argc) {
      translated.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      translated.emplace_back("--benchmark_out_format=csv");
    } else {
      translated.emplace_back(argv[i]);
    }
  }
  std::vector<char*> args;
  for (auto& s : translated) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
