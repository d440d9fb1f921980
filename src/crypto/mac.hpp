// Keyed message digests ("HMAC" in the paper's terminology, §V Eqn. 4):
//
//   digest = HMAC_K(p4Auth_h || p4Auth_payload)
//
// Two interchangeable algorithms, matching §VII:
//  * HalfSipHash-2-4 keyed directly with the 64-bit secret — the BMv2
//    target's `compute_digest` extern (HalfSipHash is itself a keyed PRF,
//    so no outer HMAC construction is needed).
//  * CRC32 in an envelope construction crc32(key || data || key) — the
//    Tofino target, where CRC is the only native hash.
//
// Verification is constant-shape (always computes the digest and compares)
// so a MitM learns nothing from timing.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "crypto/halfsiphash_lanes.hpp"

namespace p4auth::crypto {

enum class MacKind : std::uint8_t {
  HalfSipHash24,  ///< BMv2-analog extern (paper's main design).
  HalfSipHash13,  ///< cheaper variant for the rounds ablation.
  Crc32Envelope,  ///< Tofino-analog (CRC32 as the hash algorithm).
};

/// Computes the 32-bit authentication tag of `data` under `key`.
Digest32 compute_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> data) noexcept;

/// Verifies `tag` against `data` under `key`.
bool verify_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> data,
                   Digest32 tag) noexcept;

/// Copy-free variants: the tag of the logical concatenation
/// `head || tail`, without materializing it. `head` is the wire codec's
/// stack-resident scratch (header sans digest + fixed payload fields),
/// `tail` a borrowed view of a variable-length payload (may be empty).
Digest32 compute_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> head,
                        std::span<const std::uint8_t> tail) noexcept;
bool verify_digest(MacKind kind, Key64 key, std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> tail, Digest32 tag) noexcept;

/// One digest request for the multi-lane overload: the tag of
/// `head || tail` under `key` (the two-span seam above, batched).
/// Shares the lane-kernel job layout so batched HalfSipHash digests
/// reach the SIMD dispatcher without a per-chunk repack.
using DigestJob = SipLaneJob;

/// Multi-lane variant: out[i] = compute_digest(kind, jobs[i]...) for all
/// jobs, computed 4–16 at a time with SIMD HalfSipHash lanes
/// (crypto/halfsiphash_lanes.hpp). Groups smaller than the active
/// backend's sip_lane_crossover() run scalar. Bit-identical to calling
/// the scalar overload per job; Crc32Envelope has no lane kernel and
/// loops scalar. Requires out.size() >= jobs.size().
void compute_digest(MacKind kind, std::span<const DigestJob> jobs,
                    std::span<Digest32> out) noexcept;

}  // namespace p4auth::crypto
