#include "crypto/halfsiphash_lanes.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace p4auth::crypto {
namespace {

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // One 32-bit load: the staging loop runs this per word, and the
  // byte-OR idiom below is not reliably fused by the compiler.
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
#else
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
#endif
}

// Per-lane message schedule over the logical concatenation head || tail.
// Mirrors the two-span scalar reference exactly: full 4-byte LE blocks,
// then a final block of the remaining bytes with total length in the
// top byte. `full_blocks` counts whole blocks; block index `full_blocks`
// is the final block.
struct LanePlan {
  std::uint64_t key = 0;
  std::span<const std::uint8_t> head{};
  std::span<const std::uint8_t> tail{};
  std::uint32_t full_blocks = 0;
  std::uint32_t nblocks = 0;  ///< full_blocks + 1; 0 marks a padded lane
  std::uint32_t total = 0;
};

inline LanePlan make_plan(const SipLaneJob& job) noexcept {
  LanePlan plan;
  plan.key = job.key;
  plan.head = job.head;
  plan.tail = job.tail;
  plan.total = static_cast<std::uint32_t>(job.head.size() + job.tail.size());
  plan.full_blocks = plan.total / 4;
  plan.nblocks = plan.full_blocks + 1;
  return plan;
}

inline std::uint32_t lane_word(const LanePlan& plan, std::uint32_t block) noexcept {
  const std::span<const std::uint8_t> head = plan.head;
  const std::span<const std::uint8_t> tail = plan.tail;
  const std::size_t base = static_cast<std::size_t>(block) * 4;
  if (block < plan.full_blocks) {
    if (base + 4 <= head.size()) return load_le32(head.data() + base);
    if (base >= head.size()) return load_le32(tail.data() + (base - head.size()));
    // The (at most one) block straddling the head/tail boundary.
    std::uint32_t m = 0;
    for (int i = 0; i < 4; ++i) {
      const std::size_t idx = base + static_cast<std::size_t>(i);
      const std::uint8_t byte = idx < head.size() ? head[idx] : tail[idx - head.size()];
      m |= static_cast<std::uint32_t>(byte) << (8 * i);
    }
    return m;
  }
  // Final block: remaining bytes plus the message length in the top byte.
  std::uint32_t m = plan.total << 24;
  int shift = 0;
  for (std::size_t i = base; i < plan.total; ++i, shift += 8) {
    const std::uint8_t byte = i < head.size() ? head[i] : tail[i - head.size()];
    m |= static_cast<std::uint32_t>(byte) << shift;
  }
  return m;
}

// Gather the message word + active mask for every lane of a group at
// block index `b`. Inactive (finished or padded) lanes read 0 and an
// all-zero mask; the kernels blend their state back to the pre-block
// value so a finished lane's state is frozen until finalization.
template <std::size_t W>
inline void gather_block(const std::array<LanePlan, W>& plans, std::uint32_t b,
                         std::uint32_t* words, std::uint32_t* masks) noexcept {
  for (std::size_t i = 0; i < W; ++i) {
    const bool active = b < plans[i].nblocks;
    words[i] = active ? lane_word(plans[i], b) : 0;
    masks[i] = active ? 0xFFFFFFFFu : 0;
  }
}

// Active-lane mask for block `b`, used on the staged path where words
// come pre-transposed and only the (rare) ragged tail needs blending.
template <std::size_t W>
inline void gather_masks(const std::array<LanePlan, W>& plans, std::uint32_t b,
                         std::uint32_t* masks) noexcept {
  for (std::size_t i = 0; i < W; ++i) masks[i] = b < plans[i].nblocks ? 0xFFFFFFFFu : 0;
}

// ---------------------------------------------------------------------------
// Block-major message staging. The per-block/per-lane lane_word gather
// (branchy, byte-wise around span boundaries) costs more than the SipHash
// rounds themselves, so for burst-sized messages the whole schedule is
// transposed up front: two memcpys flatten head||tail per lane, then the
// words land in stage[block][lane] so the hot loop does ONE aligned
// vector load per block. Messages longer than kStageBytes (none on the
// packet path) fall back to the generic gather.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kStageBytes = 512;
inline constexpr std::size_t kStageBlocks = kStageBytes / 4 + 1;  // + final block

// Inline copy for packet-sized spans: a library memcpy call costs more
// than moving the ~26–90 bytes a staged lane actually has, and GCC only
// inlines memcpy for compile-time sizes — so chunk with fixed-size
// 8-byte copies (each a single load/store pair) and finish bytewise.
inline void copy_small(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) noexcept {
  if (n >= 16) {
    // 32- then 16-byte chunks, then one overlapped 16-byte chunk
    // covering the tail — rewriting a few already-copied bytes is free
    // and saves the byte-granular remainder loop.
    std::size_t k = 0;
    for (; k + 32 <= n; k += 32) {
      std::uint8_t w[32];
      std::memcpy(w, src + k, 32);
      std::memcpy(dst + k, w, 32);
    }
    if (k + 16 <= n) {
      std::uint8_t w[16];
      std::memcpy(w, src + k, 16);
      std::memcpy(dst + k, w, 16);
      k += 16;
    }
    if (k < n) {
      std::uint8_t w[16];
      std::memcpy(w, src + n - 16, 16);
      std::memcpy(dst + n - 16, w, 16);
    }
    return;
  }
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    std::uint64_t w;
    std::memcpy(&w, src + k, 8);
    std::memcpy(dst + k, &w, 8);
  }
  for (; k < n; ++k) dst[k] = src[k];
}

// Row-major staging for the gather kernels (AVX2/AVX-512): each lane's
// head||tail is flattened into its own contiguous row with the final
// block's length byte pre-merged, and the hot loop pulls block b across
// all lanes with a single vpgatherdd at byte offset 4*b — no scalar
// transpose at all. Everything the kernel needs per lane lives in flat
// scalar arrays (no LanePlan spans): the per-call setup cost of
// building and re-reading struct-of-span plans through the stack was
// measurably larger than the SipHash rounds themselves.
//
// Rows of padded/finished lanes hold garbage past their final block;
// every such block is blended out (a short or padded lane forces
// !uniform), and all gathers stay inside the rows array.
// Row length rounded up to a whole number of 16-word tiles so the
// AVX-512 kernel's full-vector tile loads never read past a row.
inline constexpr std::size_t kRowWords = (kStageBlocks + 15) & ~std::size_t{15};

template <std::size_t W>
struct GatherStage {
  alignas(64) std::uint32_t rows[W][kRowWords];
  // Per-lane key words only; the kernels fold the HalfSipHash init
  // constants into v2/v3 with two vector xors instead of 2*W scalar
  // ones here.
  alignas(64) std::uint32_t lane_init[2][W];
  std::uint32_t nblocks[W];
  std::uint32_t max_blocks = 0;
  std::uint32_t min_blocks = 0xFFFFFFFFu;
};

// One fused pass over the jobs: keys, block counts, and staged rows.
// Returns false (fall back to the generic plan-based kernel) if any
// message exceeds kStageBytes — never on the packet path.
template <std::size_t W>
inline bool stage_group(const SipLaneJob* jobs, std::size_t n, GatherStage<W>& g) noexcept {
  for (std::size_t i = 0; i < W; ++i) {
    std::uint64_t key = 0;
    if (i < n) {
      const SipLaneJob& job = jobs[i];
      key = job.key;
      const auto total = static_cast<std::uint32_t>(job.head.size() + job.tail.size());
      if (total > kStageBytes) return false;
      const std::uint32_t nb = total / 4 + 1;
      g.nblocks[i] = nb;
      g.max_blocks = std::max(g.max_blocks, nb);
      g.min_blocks = std::min(g.min_blocks, nb);
      auto* buf = reinterpret_cast<std::uint8_t*>(g.rows[i]);
      if (!job.head.empty()) copy_small(buf, job.head.data(), job.head.size());
      if (!job.tail.empty()) copy_small(buf + job.head.size(), job.tail.data(), job.tail.size());
      std::memset(buf + total, 0, 4);  // zero-pad the final partial word
      // Rows are read back with raw 32-bit gathers, so this byte layout
      // IS the little-endian block value (the gather kernels are
      // x86-only); merge the length byte in place.
      g.rows[i][total / 4] |= total << 24;
    } else {
      g.nblocks[i] = 0;  // padded lane: blended out of every block
      g.min_blocks = 0;
    }
    g.lane_init[0][i] = static_cast<std::uint32_t>(key);
    g.lane_init[1][i] = static_cast<std::uint32_t>(key >> 32);
  }
  return true;
}

#if defined(__x86_64__)

// Span copy for AVX-512BW staging: vmovdqu8 with a zeroing mask
// architecturally suppresses faults on masked-out bytes, so the ragged
// remainder of a head/tail span loads in one instruction without ever
// reading past the span. The remainder's full 64-byte store is always
// in bounds — rows are kRowWords (=144) words and staged totals are
// <= kStageBytes (512), so offset + n + 63 < 576 — and the masked-out
// bytes store as zeros, pre-padding the final block.
__attribute__((target("avx512f,avx512bw"))) inline void copy_span_avx512bw(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n) noexcept {
  std::size_t k = 0;
  for (; k + 64 <= n; k += 64) {
    _mm512_storeu_si512(dst + k, _mm512_loadu_si512(src + k));
  }
  if (k < n) {
    const __mmask64 m = ~std::uint64_t{0} >> (64 - (n - k));
    _mm512_storeu_si512(dst + k, _mm512_maskz_loadu_epi8(m, src + k));
  }
}

// stage_group with the masked-load copies — same contract, kept in
// lockstep with the portable version above. Head is copied before tail
// because the head remainder's zero bytes spill into the tail region.
__attribute__((target("avx512f,avx512bw"))) inline bool stage_group_avx512bw(
    const SipLaneJob* jobs, std::size_t n, GatherStage<16>& g) noexcept {
  constexpr std::size_t W = 16;
  for (std::size_t i = 0; i < W; ++i) {
    std::uint64_t key = 0;
    if (i < n) {
      const SipLaneJob& job = jobs[i];
      key = job.key;
      const auto total = static_cast<std::uint32_t>(job.head.size() + job.tail.size());
      if (total > kStageBytes) return false;
      const std::uint32_t nb = total / 4 + 1;
      g.nblocks[i] = nb;
      g.max_blocks = std::max(g.max_blocks, nb);
      g.min_blocks = std::min(g.min_blocks, nb);
      auto* buf = reinterpret_cast<std::uint8_t*>(g.rows[i]);
      if (!job.head.empty()) copy_span_avx512bw(buf, job.head.data(), job.head.size());
      if (!job.tail.empty()) {
        copy_span_avx512bw(buf + job.head.size(), job.tail.data(), job.tail.size());
      }
      // A span ending exactly on a 64-byte chunk leaves no zero spill,
      // so the final partial word is still padded explicitly.
      std::memset(buf + total, 0, 4);
      g.rows[i][total / 4] |= total << 24;
    } else {
      g.nblocks[i] = 0;  // padded lane: blended out of every block
      g.min_blocks = 0;
    }
    g.lane_init[0][i] = static_cast<std::uint32_t>(key);
    g.lane_init[1][i] = static_cast<std::uint32_t>(key >> 32);
  }
  return true;
}

// __builtin_cpu_supports compiles to a flag load from libgcc's
// pre-resolved __cpu_model, so checking per kernel call is free.
inline bool stage_avx512(const SipLaneJob* jobs, std::size_t n, GatherStage<16>& g) noexcept {
  return __builtin_cpu_supports("avx512bw") ? stage_group_avx512bw(jobs, n, g)
                                            : stage_group<16>(jobs, n, g);
}

#endif  // defined(__x86_64__)

// Active-lane mask for block `b` from the flat block counts.
template <std::size_t W>
inline void gather_masks(const std::uint32_t* nblocks, std::uint32_t b,
                         std::uint32_t* masks) noexcept {
  for (std::size_t i = 0; i < W; ++i) masks[i] = b < nblocks[i] ? 0xFFFFFFFFu : 0;
}

template <std::size_t W>
inline bool stage_lanes(const std::array<LanePlan, W>& plans,
                        std::uint32_t (*stage)[W]) noexcept {
  for (std::size_t i = 0; i < W; ++i) {
    if (plans[i].total > kStageBytes) return false;
  }
  for (std::size_t i = 0; i < W; ++i) {
    const LanePlan& p = plans[i];
    if (p.nblocks == 0) continue;  // padded lane: blended out of every block
    // Inactive lanes' stage slots stay garbage — they are always masked
    // (a padded or finished lane forces !uniform, which blends them out).
    std::uint8_t buf[kStageBytes + 4];
    if (!p.head.empty()) copy_small(buf, p.head.data(), p.head.size());
    if (!p.tail.empty()) copy_small(buf + p.head.size(), p.tail.data(), p.tail.size());
    std::memset(buf + p.total, 0, 4);  // zero-pad the final partial word
    for (std::uint32_t b = 0; b < p.full_blocks; ++b) {
      stage[b][i] = load_le32(buf + static_cast<std::size_t>(b) * 4);
    }
    stage[p.full_blocks][i] =
        load_le32(buf + static_cast<std::size_t>(p.full_blocks) * 4) | (p.total << 24);
  }
  return true;
}

template <std::size_t W>
inline void load_plans(const SipLaneJob* jobs, std::size_t n, std::array<LanePlan, W>& plans,
                       std::uint32_t& max_blocks, std::uint32_t& min_blocks) noexcept {
  max_blocks = 0;
  min_blocks = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < W; ++i) {
    if (i < n) {
      plans[i] = make_plan(jobs[i]);
      max_blocks = std::max(max_blocks, plans[i].nblocks);
      min_blocks = std::min(min_blocks, plans[i].nblocks);
    } else {
      plans[i] = LanePlan{};  // nblocks = 0: never active, output slot unused
      min_blocks = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Portable kernel: 4 lanes in struct-of-arrays form, every round applied
// unconditionally across the group in plain elementwise loops (GCC
// auto-vectorizes these to the target's baseline SIMD), finished lanes
// restored from a saved copy.
// ---------------------------------------------------------------------------

constexpr std::uint32_t rotl(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

template <std::size_t W>
inline void rounds_soa(std::uint32_t* v0, std::uint32_t* v1, std::uint32_t* v2, std::uint32_t* v3,
                       int n) noexcept {
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < W; ++i) {
      v0[i] += v1[i];
      v1[i] = rotl(v1[i], 5);
      v1[i] ^= v0[i];
      v0[i] = rotl(v0[i], 16);
      v2[i] += v3[i];
      v3[i] = rotl(v3[i], 8);
      v3[i] ^= v2[i];
      v0[i] += v3[i];
      v3[i] = rotl(v3[i], 7);
      v3[i] ^= v0[i];
      v2[i] += v1[i];
      v1[i] = rotl(v1[i], 13);
      v1[i] ^= v2[i];
      v2[i] = rotl(v2[i], 16);
    }
  }
}

void kernel_portable(const SipLaneJob* jobs, std::size_t n, std::uint32_t* out,
                     SipRounds rounds) noexcept {
  constexpr std::size_t W = 4;
  std::array<LanePlan, W> plans;
  std::uint32_t max_blocks = 0;
  std::uint32_t min_blocks = 0;
  load_plans<W>(jobs, n, plans, max_blocks, min_blocks);

  std::uint32_t v0[W], v1[W], v2[W], v3[W];
  for (std::size_t i = 0; i < W; ++i) {
    const auto k0 = static_cast<std::uint32_t>(plans[i].key);
    const auto k1 = static_cast<std::uint32_t>(plans[i].key >> 32);
    v0[i] = k0;
    v1[i] = k1;
    v2[i] = 0x6c796765u ^ k0;
    v3[i] = 0x74656473u ^ k1;
  }

  alignas(32) std::uint32_t stage[kStageBlocks][W];
  const bool staged = stage_lanes<W>(plans, stage);

  std::uint32_t words[W], masks[W];
  std::uint32_t s0[W], s1[W], s2[W], s3[W];
  for (std::uint32_t b = 0; b < max_blocks; ++b) {
    if (staged) {
      for (std::size_t i = 0; i < W; ++i) words[i] = stage[b][i];
      if (b >= min_blocks) gather_masks<W>(plans, b, masks);
    } else {
      gather_block<W>(plans, b, words, masks);
    }
    const bool uniform = b < min_blocks;
    if (!uniform) {
      for (std::size_t i = 0; i < W; ++i) {
        s0[i] = v0[i];
        s1[i] = v1[i];
        s2[i] = v2[i];
        s3[i] = v3[i];
      }
    }
    for (std::size_t i = 0; i < W; ++i) v3[i] ^= words[i];
    rounds_soa<W>(v0, v1, v2, v3, rounds.compression);
    for (std::size_t i = 0; i < W; ++i) v0[i] ^= words[i];
    if (!uniform) {
      for (std::size_t i = 0; i < W; ++i) {
        v0[i] = (v0[i] & masks[i]) | (s0[i] & ~masks[i]);
        v1[i] = (v1[i] & masks[i]) | (s1[i] & ~masks[i]);
        v2[i] = (v2[i] & masks[i]) | (s2[i] & ~masks[i]);
        v3[i] = (v3[i] & masks[i]) | (s3[i] & ~masks[i]);
      }
    }
  }

  for (std::size_t i = 0; i < W; ++i) v2[i] ^= 0xFFu;
  rounds_soa<W>(v0, v1, v2, v3, rounds.finalization);
  for (std::size_t i = 0; i < n && i < W; ++i) out[i] = v1[i] ^ v3[i];
}

// ---------------------------------------------------------------------------
// SSE2 kernel: 4 lanes. SSE2 is baseline on x86-64, so no target
// attribute or runtime check is needed beyond the architecture guard.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

inline __m128i rotl128(__m128i x, int k) noexcept {
  return _mm_or_si128(_mm_slli_epi32(x, k), _mm_srli_epi32(x, 32 - k));
}

inline void round_sse2(__m128i& v0, __m128i& v1, __m128i& v2, __m128i& v3) noexcept {
  v0 = _mm_add_epi32(v0, v1);
  v1 = rotl128(v1, 5);
  v1 = _mm_xor_si128(v1, v0);
  v0 = rotl128(v0, 16);
  v2 = _mm_add_epi32(v2, v3);
  v3 = rotl128(v3, 8);
  v3 = _mm_xor_si128(v3, v2);
  v0 = _mm_add_epi32(v0, v3);
  v3 = rotl128(v3, 7);
  v3 = _mm_xor_si128(v3, v0);
  v2 = _mm_add_epi32(v2, v1);
  v1 = rotl128(v1, 13);
  v1 = _mm_xor_si128(v1, v2);
  v2 = rotl128(v2, 16);
}

// mask ? a : b, per bit (SSE2 has no blendv).
inline __m128i blend128(__m128i mask, __m128i a, __m128i b) noexcept {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}

void kernel_sse2(const SipLaneJob* jobs, std::size_t n, std::uint32_t* out,
                 SipRounds rounds) noexcept {
  constexpr std::size_t W = 4;
  std::array<LanePlan, W> plans;
  std::uint32_t max_blocks = 0;
  std::uint32_t min_blocks = 0;
  load_plans<W>(jobs, n, plans, max_blocks, min_blocks);

  alignas(16) std::uint32_t lane_init[4][W];
  for (std::size_t i = 0; i < W; ++i) {
    const auto k0 = static_cast<std::uint32_t>(plans[i].key);
    const auto k1 = static_cast<std::uint32_t>(plans[i].key >> 32);
    lane_init[0][i] = k0;
    lane_init[1][i] = k1;
    lane_init[2][i] = 0x6c796765u ^ k0;
    lane_init[3][i] = 0x74656473u ^ k1;
  }
  __m128i v0 = _mm_load_si128(reinterpret_cast<const __m128i*>(lane_init[0]));
  __m128i v1 = _mm_load_si128(reinterpret_cast<const __m128i*>(lane_init[1]));
  __m128i v2 = _mm_load_si128(reinterpret_cast<const __m128i*>(lane_init[2]));
  __m128i v3 = _mm_load_si128(reinterpret_cast<const __m128i*>(lane_init[3]));

  alignas(16) std::uint32_t stage[kStageBlocks][W];
  const bool staged = stage_lanes<W>(plans, stage);

  alignas(16) std::uint32_t words[W];
  alignas(16) std::uint32_t masks[W];
  for (std::uint32_t b = 0; b < max_blocks; ++b) {
    __m128i m;
    const bool uniform = b < min_blocks;
    if (staged) {
      m = _mm_load_si128(reinterpret_cast<const __m128i*>(stage[b]));
      if (!uniform) gather_masks<W>(plans, b, masks);
    } else {
      gather_block<W>(plans, b, words, masks);
      m = _mm_load_si128(reinterpret_cast<const __m128i*>(words));
    }
    const __m128i o0 = v0, o1 = v1, o2 = v2, o3 = v3;
    v3 = _mm_xor_si128(v3, m);
    for (int r = 0; r < rounds.compression; ++r) round_sse2(v0, v1, v2, v3);
    v0 = _mm_xor_si128(v0, m);
    if (!uniform) {
      const __m128i mask = _mm_load_si128(reinterpret_cast<const __m128i*>(masks));
      v0 = blend128(mask, v0, o0);
      v1 = blend128(mask, v1, o1);
      v2 = blend128(mask, v2, o2);
      v3 = blend128(mask, v3, o3);
    }
  }

  v2 = _mm_xor_si128(v2, _mm_set1_epi32(0xFF));
  for (int r = 0; r < rounds.finalization; ++r) round_sse2(v0, v1, v2, v3);
  alignas(16) std::uint32_t result[W];
  _mm_store_si128(reinterpret_cast<__m128i*>(result), _mm_xor_si128(v1, v3));
  for (std::size_t i = 0; i < n && i < W; ++i) out[i] = result[i];
}

// ---------------------------------------------------------------------------
// AVX2 kernel: 8 lanes. Compiled with a per-function target attribute so
// the TU builds without -mavx2; only runs after __builtin_cpu_supports
// says the host has it.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i rotl256(__m256i x, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi32(x, k), _mm256_srli_epi32(x, 32 - k));
}

// Byte-aligned rotates (8, 16) as a single vpshufb instead of the
// generic slli/srli/or triple: pre-AVX-512 x86 has no vector rotate, so
// the shift-port pressure of 6 rotates per round is what caps this
// kernel — pshufb runs on a different port and covers 4 of the 6.
__attribute__((target("avx2"))) inline __m256i rot8_256(__m256i x) noexcept {
  const __m256i idx = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0,
                                       1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, idx);
}

__attribute__((target("avx2"))) inline __m256i rot16_256(__m256i x) noexcept {
  const __m256i idx = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3,
                                       0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, idx);
}

__attribute__((target("avx2"))) inline void round_avx2(__m256i& v0, __m256i& v1, __m256i& v2,
                                                       __m256i& v3) noexcept {
  v0 = _mm256_add_epi32(v0, v1);
  v1 = rotl256(v1, 5);
  v1 = _mm256_xor_si256(v1, v0);
  v0 = rot16_256(v0);
  v2 = _mm256_add_epi32(v2, v3);
  v3 = rot8_256(v3);
  v3 = _mm256_xor_si256(v3, v2);
  v0 = _mm256_add_epi32(v0, v3);
  v3 = rotl256(v3, 7);
  v3 = _mm256_xor_si256(v3, v0);
  v2 = _mm256_add_epi32(v2, v1);
  v1 = _mm256_xor_si256(rotl256(v1, 13), v2);
  v2 = rot16_256(v2);
}

// Generic slow path: messages longer than kStageBytes (never the
// packet path) go through the plan-based per-block gather.
__attribute__((target("avx2"))) void kernel_avx2_generic(const SipLaneJob* jobs, std::size_t n,
                                                         std::uint32_t* out,
                                                         SipRounds rounds) noexcept {
  constexpr std::size_t W = 8;
  std::array<LanePlan, W> plans;
  std::uint32_t max_blocks = 0;
  std::uint32_t min_blocks = 0;
  load_plans<W>(jobs, n, plans, max_blocks, min_blocks);

  alignas(32) std::uint32_t lane_init[4][W];
  for (std::size_t i = 0; i < W; ++i) {
    const auto k0 = static_cast<std::uint32_t>(plans[i].key);
    const auto k1 = static_cast<std::uint32_t>(plans[i].key >> 32);
    lane_init[0][i] = k0;
    lane_init[1][i] = k1;
    lane_init[2][i] = 0x6c796765u ^ k0;
    lane_init[3][i] = 0x74656473u ^ k1;
  }
  __m256i v0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_init[0]));
  __m256i v1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_init[1]));
  __m256i v2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_init[2]));
  __m256i v3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_init[3]));

  alignas(32) std::uint32_t words[W];
  alignas(32) std::uint32_t masks[W];
  for (std::uint32_t b = 0; b < max_blocks; ++b) {
    gather_block<W>(plans, b, words, masks);
    const __m256i m = _mm256_load_si256(reinterpret_cast<const __m256i*>(words));
    const bool uniform = b < min_blocks;
    const __m256i o0 = v0, o1 = v1, o2 = v2, o3 = v3;
    v3 = _mm256_xor_si256(v3, m);
    for (int r = 0; r < rounds.compression; ++r) round_avx2(v0, v1, v2, v3);
    v0 = _mm256_xor_si256(v0, m);
    if (!uniform) {
      const __m256i mask = _mm256_load_si256(reinterpret_cast<const __m256i*>(masks));
      v0 = _mm256_blendv_epi8(o0, v0, mask);
      v1 = _mm256_blendv_epi8(o1, v1, mask);
      v2 = _mm256_blendv_epi8(o2, v2, mask);
      v3 = _mm256_blendv_epi8(o3, v3, mask);
    }
  }

  v2 = _mm256_xor_si256(v2, _mm256_set1_epi32(0xFF));
  for (int r = 0; r < rounds.finalization; ++r) round_avx2(v0, v1, v2, v3);
  alignas(32) std::uint32_t result[W];
  _mm256_store_si256(reinterpret_cast<__m256i*>(result), _mm256_xor_si256(v1, v3));
  for (std::size_t i = 0; i < n && i < W; ++i) out[i] = result[i];
}

__attribute__((target("avx2"))) void kernel_avx2(const SipLaneJob* jobs, std::size_t n,
                                                 std::uint32_t* out, SipRounds rounds) noexcept {
  constexpr std::size_t W = 8;
  GatherStage<W> g;
  if (!stage_group<W>(jobs, n, g)) {
    kernel_avx2_generic(jobs, n, out, rounds);
    return;
  }
  __m256i v0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(g.lane_init[0]));
  __m256i v1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(g.lane_init[1]));
  __m256i v2 = _mm256_xor_si256(_mm256_set1_epi32(0x6c796765), v0);
  __m256i v3 = _mm256_xor_si256(_mm256_set1_epi32(0x74656473), v1);

  const __m256i vidx = _mm256_setr_epi32(
      0, 1 * sizeof(g.rows[0]), 2 * sizeof(g.rows[0]), 3 * sizeof(g.rows[0]),
      4 * sizeof(g.rows[0]), 5 * sizeof(g.rows[0]), 6 * sizeof(g.rows[0]), 7 * sizeof(g.rows[0]));

  alignas(32) std::uint32_t masks[W];
  for (std::uint32_t b = 0; b < g.max_blocks; ++b) {
    const auto* base =
        reinterpret_cast<const int*>(reinterpret_cast<const std::uint8_t*>(g.rows) + 4 * b);
    const __m256i m = _mm256_i32gather_epi32(base, vidx, 1);
    const bool uniform = b < g.min_blocks;
    const __m256i o0 = v0, o1 = v1, o2 = v2, o3 = v3;
    v3 = _mm256_xor_si256(v3, m);
    for (int r = 0; r < rounds.compression; ++r) round_avx2(v0, v1, v2, v3);
    v0 = _mm256_xor_si256(v0, m);
    if (!uniform) {
      gather_masks<W>(g.nblocks, b, masks);
      const __m256i mask = _mm256_load_si256(reinterpret_cast<const __m256i*>(masks));
      v0 = _mm256_blendv_epi8(o0, v0, mask);
      v1 = _mm256_blendv_epi8(o1, v1, mask);
      v2 = _mm256_blendv_epi8(o2, v2, mask);
      v3 = _mm256_blendv_epi8(o3, v3, mask);
    }
  }

  v2 = _mm256_xor_si256(v2, _mm256_set1_epi32(0xFF));
  for (int r = 0; r < rounds.finalization; ++r) round_avx2(v0, v1, v2, v3);
  alignas(32) std::uint32_t result[W];
  _mm256_store_si256(reinterpret_cast<__m256i*>(result), _mm256_xor_si256(v1, v3));
  for (std::size_t i = 0; i < n && i < W; ++i) out[i] = result[i];
}

// ---------------------------------------------------------------------------
// AVX-512 kernel: 16 lanes. AVX-512F has a native 32-bit vector rotate
// (vprold, one uop) — the op SSE2/AVX2 must emulate with a 3-uop
// slli/srli/or on the shift port — so all six rotates per round run at
// full width with no port bottleneck. The ragged-tail blend uses mask
// registers directly.
// ---------------------------------------------------------------------------

// GCC's _mm512_rol_epi32 feeds _mm512_undefined_epi32() as the (fully
// masked-off) merge source, which trips -Wmaybe-uninitialized when
// inlined; the value never flows into the result.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// _mm512_rol_epi32 demands a compile-time immediate; a template
// parameter keeps that guarantee at every call site.
template <int K>
__attribute__((target("avx512f"))) inline __m512i rotl512(__m512i x) noexcept {
  return _mm512_rol_epi32(x, K);
}

__attribute__((target("avx512f"))) inline void round_avx512(__m512i& v0, __m512i& v1, __m512i& v2,
                                                            __m512i& v3) noexcept {
  v0 = _mm512_add_epi32(v0, v1);
  v1 = rotl512<5>(v1);
  v1 = _mm512_xor_si512(v1, v0);
  v0 = rotl512<16>(v0);
  v2 = _mm512_add_epi32(v2, v3);
  v3 = rotl512<8>(v3);
  v3 = _mm512_xor_si512(v3, v2);
  v0 = _mm512_add_epi32(v0, v3);
  v3 = rotl512<7>(v3);
  v3 = _mm512_xor_si512(v3, v0);
  v2 = _mm512_add_epi32(v2, v1);
  v1 = _mm512_xor_si512(rotl512<13>(v1), v2);
  v2 = rotl512<16>(v2);
}

// Bit i set iff lane i still has message blocks at index `b` (the
// AVX-512 kernel consumes this as a __mmask16 rather than a full-width
// mask vector).
template <std::size_t W>
inline unsigned active_lane_bits(const std::array<LanePlan, W>& plans, std::uint32_t b) noexcept {
  unsigned bits = 0;
  for (std::size_t i = 0; i < W; ++i) {
    if (b < plans[i].nblocks) bits |= 1u << i;
  }
  return bits;
}

// Bit i set iff lane i still has message blocks at index `b`, from the
// flat block counts of the staged fast path.
template <std::size_t W>
inline unsigned active_lane_bits(const std::uint32_t* nblocks, std::uint32_t b) noexcept {
  unsigned bits = 0;
  for (std::size_t i = 0; i < W; ++i) {
    if (b < nblocks[i]) bits |= 1u << i;
  }
  return bits;
}

// Generic slow path for messages longer than kStageBytes.
__attribute__((target("avx512f"))) void kernel_avx512_generic(const SipLaneJob* jobs,
                                                              std::size_t n, std::uint32_t* out,
                                                              SipRounds rounds) noexcept {
  constexpr std::size_t W = 16;
  std::array<LanePlan, W> plans;
  std::uint32_t max_blocks = 0;
  std::uint32_t min_blocks = 0;
  load_plans<W>(jobs, n, plans, max_blocks, min_blocks);

  alignas(64) std::uint32_t lane_init[4][W];
  for (std::size_t i = 0; i < W; ++i) {
    const auto k0 = static_cast<std::uint32_t>(plans[i].key);
    const auto k1 = static_cast<std::uint32_t>(plans[i].key >> 32);
    lane_init[0][i] = k0;
    lane_init[1][i] = k1;
    lane_init[2][i] = 0x6c796765u ^ k0;
    lane_init[3][i] = 0x74656473u ^ k1;
  }
  __m512i v0 = _mm512_load_si512(lane_init[0]);
  __m512i v1 = _mm512_load_si512(lane_init[1]);
  __m512i v2 = _mm512_load_si512(lane_init[2]);
  __m512i v3 = _mm512_load_si512(lane_init[3]);

  alignas(64) std::uint32_t words[W];
  alignas(64) std::uint32_t masks[W];
  for (std::uint32_t b = 0; b < max_blocks; ++b) {
    gather_block<W>(plans, b, words, masks);
    const __m512i m = _mm512_load_si512(words);
    const bool uniform = b < min_blocks;
    const __m512i o0 = v0, o1 = v1, o2 = v2, o3 = v3;
    v3 = _mm512_xor_si512(v3, m);
    for (int r = 0; r < rounds.compression; ++r) round_avx512(v0, v1, v2, v3);
    v0 = _mm512_xor_si512(v0, m);
    if (!uniform) {
      const auto keep = static_cast<__mmask16>(active_lane_bits<W>(plans, b));
      v0 = _mm512_mask_blend_epi32(keep, o0, v0);
      v1 = _mm512_mask_blend_epi32(keep, o1, v1);
      v2 = _mm512_mask_blend_epi32(keep, o2, v2);
      v3 = _mm512_mask_blend_epi32(keep, o3, v3);
    }
  }

  v2 = _mm512_xor_si512(v2, _mm512_set1_epi32(0xFF));
  for (int r = 0; r < rounds.finalization; ++r) round_avx512(v0, v1, v2, v3);
  alignas(64) std::uint32_t result[W];
  _mm512_store_si512(result, _mm512_xor_si512(v1, v3));
  for (std::size_t i = 0; i < n && i < W; ++i) out[i] = result[i];
}

// Transpose one 16-block tile of a staged group: 16 row loads at word
// offset `base` become 16 block vectors t[j] = words of block base+j
// across all lanes. The canonical unpack32 → unpack64 → 2x
// shuffle_i32x4 network — ~4 shuffle uops per block, replacing a
// micro-coded vpgatherdd per block (which also cannot store-forward
// from the rows just written by staging).
__attribute__((target("avx512f"))) inline void transpose_tile_avx512(const GatherStage<16>& g,
                                                                     std::uint32_t base,
                                                                     __m512i* t) noexcept {
  __m512i r[16];
  for (int i = 0; i < 16; ++i) {
    r[i] = _mm512_loadu_si512(g.rows[i] + base);
  }
  __m512i u[16];
  for (int i = 0; i < 8; ++i) {
    u[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
    u[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
  }
  for (int i = 0; i < 4; ++i) {
    r[4 * i] = _mm512_unpacklo_epi64(u[4 * i], u[4 * i + 2]);
    r[4 * i + 1] = _mm512_unpackhi_epi64(u[4 * i], u[4 * i + 2]);
    r[4 * i + 2] = _mm512_unpacklo_epi64(u[4 * i + 1], u[4 * i + 3]);
    r[4 * i + 3] = _mm512_unpackhi_epi64(u[4 * i + 1], u[4 * i + 3]);
  }
  for (int i = 0; i < 4; ++i) {
    u[i] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0x88);
    u[i + 4] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0xdd);
    u[i + 8] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0x88);
    u[i + 12] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0xdd);
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_i32x4(u[i], u[i + 8], 0x88);
    t[i + 4] = _mm512_shuffle_i32x4(u[i + 4], u[i + 12], 0x88);
    t[i + 8] = _mm512_shuffle_i32x4(u[i], u[i + 8], 0xdd);
    t[i + 12] = _mm512_shuffle_i32x4(u[i + 4], u[i + 12], 0xdd);
  }
}

// Cross-lane word gather for a single block — used only for the ragged
// tail past the last full 16-block tile, where a full transpose would
// waste most of its shuffle work on unused block slots.
__attribute__((target("avx512f"))) inline __m512i gather_block_avx512(
    const GatherStage<16>& g, std::uint32_t b) noexcept {
  constexpr int S = static_cast<int>(kRowWords * sizeof(std::uint32_t));
  const __m512i vidx =
      _mm512_setr_epi32(0, S, 2 * S, 3 * S, 4 * S, 5 * S, 6 * S, 7 * S, 8 * S, 9 * S, 10 * S,
                        11 * S, 12 * S, 13 * S, 14 * S, 15 * S);
  const int* base =
      reinterpret_cast<const int*>(reinterpret_cast<const std::uint8_t*>(g.rows) + 4u * b);
  return _mm512_i32gather_epi32(vidx, base, 1);
}

// One message block for one staged group: compression rounds plus the
// ragged-tail blend; `m` is the block's transposed word vector.
__attribute__((target("avx512f"))) inline void block_avx512(const GatherStage<16>& g,
                                                            std::uint32_t b, __m512i m,
                                                            SipRounds rounds, __m512i& v0,
                                                            __m512i& v1, __m512i& v2,
                                                            __m512i& v3) noexcept {
  const __m512i o0 = v0, o1 = v1, o2 = v2, o3 = v3;
  v3 = _mm512_xor_si512(v3, m);
  for (int r = 0; r < rounds.compression; ++r) round_avx512(v0, v1, v2, v3);
  v0 = _mm512_xor_si512(v0, m);
  if (b >= g.min_blocks) {
    const auto keep = static_cast<__mmask16>(active_lane_bits<16>(g.nblocks, b));
    v0 = _mm512_mask_blend_epi32(keep, o0, v0);
    v1 = _mm512_mask_blend_epi32(keep, o1, v1);
    v2 = _mm512_mask_blend_epi32(keep, o2, v2);
    v3 = _mm512_mask_blend_epi32(keep, o3, v3);
  }
}

__attribute__((target("avx512f"))) inline void finalize_avx512(SipRounds rounds, __m512i v0,
                                                               __m512i v1, __m512i v2, __m512i v3,
                                                               std::size_t n,
                                                               std::uint32_t* out) noexcept {
  v2 = _mm512_xor_si512(v2, _mm512_set1_epi32(0xFF));
  for (int r = 0; r < rounds.finalization; ++r) round_avx512(v0, v1, v2, v3);
  alignas(64) std::uint32_t result[16];
  _mm512_store_si512(result, _mm512_xor_si512(v1, v3));
  for (std::size_t i = 0; i < n && i < 16; ++i) out[i] = result[i];
}

__attribute__((target("avx512f"))) void kernel_avx512(const SipLaneJob* jobs, std::size_t n,
                                                      std::uint32_t* out,
                                                      SipRounds rounds) noexcept {
  constexpr std::size_t W = 16;
  GatherStage<W> g;
  if (!stage_avx512(jobs, n, g)) {
    kernel_avx512_generic(jobs, n, out, rounds);
    return;
  }
  __m512i v0 = _mm512_load_si512(g.lane_init[0]);
  __m512i v1 = _mm512_load_si512(g.lane_init[1]);
  __m512i v2 = _mm512_xor_si512(_mm512_set1_epi32(0x6c796765), v0);
  __m512i v3 = _mm512_xor_si512(_mm512_set1_epi32(0x74656473), v1);
  __m512i t[16];
  const std::uint32_t full = g.max_blocks & ~15u;
  for (std::uint32_t base = 0; base < full; base += 16) {
    transpose_tile_avx512(g, base, t);
    for (std::uint32_t b = base; b < base + 16; ++b) {
      block_avx512(g, b, t[b - base], rounds, v0, v1, v2, v3);
    }
  }
  for (std::uint32_t b = full; b < g.max_blocks; ++b) {
    block_avx512(g, b, gather_block_avx512(g, b), rounds, v0, v1, v2, v3);
  }
  finalize_avx512(rounds, v0, v1, v2, v3, n, out);
}

// Two independent 16-lane groups in one pass (a full 32-job planner
// batch). Each group's blocks form one serial dependency chain —
// block b's state feeds block b+1 — so a single group cannot saturate
// the 512-bit ports; running two chains side by side lets the
// out-of-order core overlap them and hides the gather latency of one
// group under the rounds of the other.
__attribute__((target("avx512f"))) void kernel_avx512_pair(const SipLaneJob* jobs,
                                                           std::uint32_t* out,
                                                           SipRounds rounds) noexcept {
  constexpr std::size_t W = 16;
  GatherStage<W> ga;
  GatherStage<W> gb;
  if (!stage_avx512(jobs, W, ga) || !stage_avx512(jobs + W, W, gb)) {
    kernel_avx512(jobs, W, out, rounds);
    kernel_avx512(jobs + W, W, out + W, rounds);
    return;
  }
  const __m512i c2 = _mm512_set1_epi32(0x6c796765);
  const __m512i c3 = _mm512_set1_epi32(0x74656473);
  __m512i a0 = _mm512_load_si512(ga.lane_init[0]);
  __m512i a1 = _mm512_load_si512(ga.lane_init[1]);
  __m512i a2 = _mm512_xor_si512(c2, a0);
  __m512i a3 = _mm512_xor_si512(c3, a1);
  __m512i b0 = _mm512_load_si512(gb.lane_init[0]);
  __m512i b1 = _mm512_load_si512(gb.lane_init[1]);
  __m512i b2 = _mm512_xor_si512(c2, b0);
  __m512i b3 = _mm512_xor_si512(c3, b1);

  // Interleave the two groups' serial round chains block-by-block over
  // the common prefix; full 16-block tiles go through the transpose,
  // ragged tails through per-block gathers.
  const std::uint32_t common = std::min(ga.max_blocks, gb.max_blocks);
  const std::uint32_t cfull = common & ~15u;
  __m512i ta[16];
  __m512i tb[16];
  std::uint32_t b = 0;
  while (b < cfull) {
    transpose_tile_avx512(ga, b, ta);
    transpose_tile_avx512(gb, b, tb);
    const std::uint32_t hi = b + 16;
    for (; b < hi; ++b) {
      block_avx512(ga, b, ta[b & 15u], rounds, a0, a1, a2, a3);
      block_avx512(gb, b, tb[b & 15u], rounds, b0, b1, b2, b3);
    }
  }
  for (; b < common; ++b) {
    block_avx512(ga, b, gather_block_avx512(ga, b), rounds, a0, a1, a2, a3);
    block_avx512(gb, b, gather_block_avx512(gb, b), rounds, b0, b1, b2, b3);
  }
  std::uint32_t ba = b;
  while (ba < ga.max_blocks) {
    const std::uint32_t base = ba & ~15u;
    if (ba == base && base + 16 <= ga.max_blocks) {
      transpose_tile_avx512(ga, base, ta);
      for (; ba < base + 16; ++ba) block_avx512(ga, ba, ta[ba & 15u], rounds, a0, a1, a2, a3);
    } else {
      block_avx512(ga, ba, gather_block_avx512(ga, ba), rounds, a0, a1, a2, a3);
      ++ba;
    }
  }
  std::uint32_t bb = b;
  while (bb < gb.max_blocks) {
    const std::uint32_t base = bb & ~15u;
    if (bb == base && base + 16 <= gb.max_blocks) {
      transpose_tile_avx512(gb, base, tb);
      for (; bb < base + 16; ++bb) block_avx512(gb, bb, tb[bb & 15u], rounds, b0, b1, b2, b3);
    } else {
      block_avx512(gb, bb, gather_block_avx512(gb, bb), rounds, b0, b1, b2, b3);
      ++bb;
    }
  }

  finalize_avx512(rounds, a0, a1, a2, a3, W, out);
  finalize_avx512(rounds, b0, b1, b2, b3, W, out + W);
}

#pragma GCC diagnostic pop

#endif  // defined(__x86_64__)

// ---------------------------------------------------------------------------
// NEON kernel: 4 lanes (ARM builds; untestable from x86 CI but kept in
// lockstep with the SSE2 kernel structure).
// ---------------------------------------------------------------------------

#if defined(__ARM_NEON)

// vshlq_n/vshrq_n demand compile-time shift counts, hence a macro.
#define P4AUTH_NEON_ROTL(x, k) vorrq_u32(vshlq_n_u32((x), (k)), vshrq_n_u32((x), 32 - (k)))

inline void round_neon(uint32x4_t& v0, uint32x4_t& v1, uint32x4_t& v2, uint32x4_t& v3) noexcept {
  v0 = vaddq_u32(v0, v1);
  v1 = P4AUTH_NEON_ROTL(v1, 5);
  v1 = veorq_u32(v1, v0);
  v0 = P4AUTH_NEON_ROTL(v0, 16);
  v2 = vaddq_u32(v2, v3);
  v3 = P4AUTH_NEON_ROTL(v3, 8);
  v3 = veorq_u32(v3, v2);
  v0 = vaddq_u32(v0, v3);
  v3 = P4AUTH_NEON_ROTL(v3, 7);
  v3 = veorq_u32(v3, v0);
  v2 = vaddq_u32(v2, v1);
  v1 = P4AUTH_NEON_ROTL(v1, 13);
  v1 = veorq_u32(v1, v2);
  v2 = P4AUTH_NEON_ROTL(v2, 16);
}

void kernel_neon(const SipLaneJob* jobs, std::size_t n, std::uint32_t* out,
                 SipRounds rounds) noexcept {
  constexpr std::size_t W = 4;
  std::array<LanePlan, W> plans;
  std::uint32_t max_blocks = 0;
  std::uint32_t min_blocks = 0;
  load_plans<W>(jobs, n, plans, max_blocks, min_blocks);

  alignas(16) std::uint32_t lane_init[4][W];
  for (std::size_t i = 0; i < W; ++i) {
    const auto k0 = static_cast<std::uint32_t>(plans[i].key);
    const auto k1 = static_cast<std::uint32_t>(plans[i].key >> 32);
    lane_init[0][i] = k0;
    lane_init[1][i] = k1;
    lane_init[2][i] = 0x6c796765u ^ k0;
    lane_init[3][i] = 0x74656473u ^ k1;
  }
  uint32x4_t v0 = vld1q_u32(lane_init[0]);
  uint32x4_t v1 = vld1q_u32(lane_init[1]);
  uint32x4_t v2 = vld1q_u32(lane_init[2]);
  uint32x4_t v3 = vld1q_u32(lane_init[3]);

  alignas(16) std::uint32_t stage[kStageBlocks][W];
  const bool staged = stage_lanes<W>(plans, stage);

  alignas(16) std::uint32_t words[W];
  alignas(16) std::uint32_t masks[W];
  for (std::uint32_t b = 0; b < max_blocks; ++b) {
    uint32x4_t m;
    const bool uniform = b < min_blocks;
    if (staged) {
      m = vld1q_u32(stage[b]);
      if (!uniform) gather_masks<W>(plans, b, masks);
    } else {
      gather_block<W>(plans, b, words, masks);
      m = vld1q_u32(words);
    }
    const uint32x4_t o0 = v0, o1 = v1, o2 = v2, o3 = v3;
    v3 = veorq_u32(v3, m);
    for (int r = 0; r < rounds.compression; ++r) round_neon(v0, v1, v2, v3);
    v0 = veorq_u32(v0, m);
    if (!uniform) {
      const uint32x4_t mask = vld1q_u32(masks);
      v0 = vbslq_u32(mask, v0, o0);
      v1 = vbslq_u32(mask, v1, o1);
      v2 = vbslq_u32(mask, v2, o2);
      v3 = vbslq_u32(mask, v3, o3);
    }
  }

  v2 = veorq_u32(v2, vdupq_n_u32(0xFF));
  for (int r = 0; r < rounds.finalization; ++r) round_neon(v0, v1, v2, v3);
  alignas(16) std::uint32_t result[W];
  vst1q_u32(result, veorq_u32(v1, v3));
  for (std::size_t i = 0; i < n && i < W; ++i) out[i] = result[i];
}

#undef P4AUTH_NEON_ROTL

#endif  // defined(__ARM_NEON)

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool backend_supported(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Portable:
      return true;
    case SipLaneBackend::Sse2:
#if defined(__x86_64__)
      return true;
#else
      return false;
#endif
    case SipLaneBackend::Avx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SipLaneBackend::Avx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case SipLaneBackend::Neon:
#if defined(__ARM_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

SipLaneBackend detect_backend() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return SipLaneBackend::Avx512;
  if (__builtin_cpu_supports("avx2")) return SipLaneBackend::Avx2;
  return SipLaneBackend::Sse2;
#elif defined(__ARM_NEON)
  return SipLaneBackend::Neon;
#else
  return SipLaneBackend::Portable;
#endif
}

// -1 = no override; otherwise a SipLaneBackend value. Relaxed atomics:
// campaign workers may race benign reads against a test's set, and the
// chosen kernel never affects results (all backends are bit-identical).
std::atomic<int> g_backend_override{-1};

using KernelFn = void (*)(const SipLaneJob*, std::size_t, std::uint32_t*, SipRounds) noexcept;

KernelFn kernel_for(SipLaneBackend backend) noexcept {
  switch (backend) {
#if defined(__x86_64__)
    case SipLaneBackend::Sse2:
      return kernel_sse2;
    case SipLaneBackend::Avx2:
      return kernel_avx2;
    case SipLaneBackend::Avx512:
      return kernel_avx512;
#endif
#if defined(__ARM_NEON)
    case SipLaneBackend::Neon:
      return kernel_neon;
#endif
    default:
      return kernel_portable;
  }
}

}  // namespace

SipLaneBackend active_sip_lane_backend() noexcept {
  const int forced = g_backend_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SipLaneBackend>(forced);
  static const SipLaneBackend detected = detect_backend();
  return detected;
}

std::size_t sip_lane_width(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Avx512:
      return 16;
    case SipLaneBackend::Avx2:
      return 8;
    default:
      return 4;
  }
}

std::size_t sip_lane_crossover(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Avx512:
    case SipLaneBackend::Avx2:
    case SipLaneBackend::Sse2:
      return 4;
    case SipLaneBackend::Neon:
      return sip_lane_width(backend);
    case SipLaneBackend::Portable:
      break;
  }
  return kMaxSipLanes + 1;
}

const char* sip_lane_backend_name(SipLaneBackend backend) noexcept {
  switch (backend) {
    case SipLaneBackend::Portable:
      return "portable";
    case SipLaneBackend::Sse2:
      return "sse2";
    case SipLaneBackend::Avx2:
      return "avx2";
    case SipLaneBackend::Neon:
      return "neon";
    case SipLaneBackend::Avx512:
      return "avx512";
  }
  return "unknown";
}

bool force_sip_lane_backend(SipLaneBackend backend) noexcept {
  if (!backend_supported(backend)) return false;
  g_backend_override.store(static_cast<int>(backend), std::memory_order_relaxed);
  return true;
}

void reset_sip_lane_backend() noexcept {
  g_backend_override.store(-1, std::memory_order_relaxed);
}

void halfsiphash_lanes(std::span<const SipLaneJob> jobs, std::span<std::uint32_t> out,
                       SipRounds rounds) noexcept {
  const SipLaneBackend backend = active_sip_lane_backend();
  const KernelFn kernel = kernel_for(backend);
  const std::size_t width = sip_lane_width(backend);
  std::size_t done = 0;
#if defined(__x86_64__)
  if (backend == SipLaneBackend::Avx512) {
    while (jobs.size() - done >= 32) {
      kernel_avx512_pair(jobs.data() + done, out.data() + done, rounds);
      done += 32;
    }
  }
#endif
  while (done < jobs.size()) {
    const std::size_t group = std::min(width, jobs.size() - done);
    kernel(jobs.data() + done, group, out.data() + done, rounds);
    done += group;
  }
}

}  // namespace p4auth::crypto
