#include "crypto/mac.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace p4auth::crypto {
namespace {

const std::uint8_t kMsg[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                             0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E};

class MacKindSweep : public ::testing::TestWithParam<MacKind> {};

TEST_P(MacKindSweep, VerifyAcceptsGenuineTag) {
  const Key64 key = 0xFEEDFACECAFEBEEFull;
  const Digest32 tag = compute_digest(GetParam(), key, kMsg);
  EXPECT_TRUE(verify_digest(GetParam(), key, kMsg, tag));
}

TEST_P(MacKindSweep, VerifyRejectsWrongKey) {
  const Digest32 tag = compute_digest(GetParam(), 111, kMsg);
  EXPECT_FALSE(verify_digest(GetParam(), 112, kMsg, tag));
}

TEST_P(MacKindSweep, VerifyRejectsEveryMessageBitFlip) {
  const Key64 key = 0x1122334455667788ull;
  const Digest32 tag = compute_digest(GetParam(), key, kMsg);
  std::vector<std::uint8_t> msg(std::begin(kMsg), std::end(kMsg));
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = msg;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(verify_digest(GetParam(), key, mutated, tag))
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_P(MacKindSweep, VerifyRejectsWrongTag) {
  const Key64 key = 42;
  const Digest32 tag = compute_digest(GetParam(), key, kMsg);
  EXPECT_FALSE(verify_digest(GetParam(), key, kMsg, tag ^ 1u));
  EXPECT_FALSE(verify_digest(GetParam(), key, kMsg, ~tag));
}

TEST_P(MacKindSweep, EmptyMessageIsTaggable) {
  const Digest32 tag = compute_digest(GetParam(), 7, {});
  EXPECT_TRUE(verify_digest(GetParam(), 7, {}, tag));
  EXPECT_FALSE(verify_digest(GetParam(), 8, {}, tag));
}

// The copy-free two-span overload must agree with the one-span digest of
// the concatenation for every split point, including splits that straddle
// the hash's internal block boundaries.
TEST_P(MacKindSweep, TwoSpanMatchesConcatenationAtEverySplit) {
  const Key64 key = 0xA5A5A5A55A5A5A5Aull;
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> msg(37);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u32());
  const Digest32 whole = compute_digest(GetParam(), key, msg);
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    const std::span<const std::uint8_t> head(msg.data(), cut);
    const std::span<const std::uint8_t> tail(msg.data() + cut, msg.size() - cut);
    EXPECT_EQ(compute_digest(GetParam(), key, head, tail), whole) << "cut " << cut;
    EXPECT_TRUE(verify_digest(GetParam(), key, head, tail, whole)) << "cut " << cut;
    EXPECT_FALSE(verify_digest(GetParam(), key, head, tail, whole ^ 1u)) << "cut " << cut;
  }
}

TEST_P(MacKindSweep, TwoSpanHandlesEmptyHalves) {
  const Key64 key = 3;
  const Digest32 whole = compute_digest(GetParam(), key, kMsg);
  EXPECT_EQ(compute_digest(GetParam(), key, kMsg, {}), whole);
  EXPECT_EQ(compute_digest(GetParam(), key, {}, kMsg), whole);
  EXPECT_EQ(compute_digest(GetParam(), key, std::span<const std::uint8_t>{},
                           std::span<const std::uint8_t>{}),
            compute_digest(GetParam(), key, {}));
}

INSTANTIATE_TEST_SUITE_P(Kinds, MacKindSweep,
                         ::testing::Values(MacKind::HalfSipHash24, MacKind::HalfSipHash13,
                                           MacKind::Crc32Envelope));

TEST(Mac, KindsDisagree) {
  // Distinct algorithms must produce distinct tags (they are not
  // interchangeable on the wire).
  const Key64 key = 99;
  const Digest32 sip = compute_digest(MacKind::HalfSipHash24, key, kMsg);
  const Digest32 crc = compute_digest(MacKind::Crc32Envelope, key, kMsg);
  EXPECT_NE(sip, crc);
}

// The multi-job overload sends full lane groups to the SIMD kernel and a
// ragged group below the backend's crossover to scalar halfsiphash. Every
// job count, under every backend the running CPU supports, must match per-job
// scalar digests.
TEST(Mac, MultiJobMatchesScalarForEveryJobCountUnderEveryBackend) {
  Xoshiro256 rng(21);
  constexpr std::size_t kJobs = 40;
  std::vector<std::vector<std::uint8_t>> heads(kJobs);
  std::vector<std::vector<std::uint8_t>> tails(kJobs);
  std::vector<DigestJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    heads[i].resize(rng.next_below(27));
    tails[i].resize(rng.next_below(120));
    for (auto& b : heads[i]) b = static_cast<std::uint8_t>(rng.next_u32());
    for (auto& b : tails[i]) b = static_cast<std::uint8_t>(rng.next_u32());
    jobs[i] = DigestJob{rng.next_u64(), heads[i], tails[i]};
  }

  std::size_t backends = 0;
  for (const SipLaneBackend backend :
       {SipLaneBackend::Portable, SipLaneBackend::Sse2, SipLaneBackend::Avx2,
        SipLaneBackend::Avx512, SipLaneBackend::Neon}) {
    if (!force_sip_lane_backend(backend)) continue;
    ++backends;
    for (const MacKind kind :
         {MacKind::HalfSipHash24, MacKind::HalfSipHash13, MacKind::Crc32Envelope}) {
      for (std::size_t n = 1; n <= kJobs; ++n) {
        std::vector<Digest32> out(n, 0);
        compute_digest(kind, std::span<const DigestJob>(jobs.data(), n), out);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], compute_digest(kind, jobs[i].key, jobs[i].head, jobs[i].tail))
              << sip_lane_backend_name(backend) << " kind " << static_cast<int>(kind)
              << " jobs " << n << " job " << i;
        }
      }
    }
  }
  reset_sip_lane_backend();
  EXPECT_GE(backends, 1u);
}

// A brute-force MitM guessing tags succeeds with probability ~2^-32 per
// try (§VIII). Simulate a bounded guess budget and confirm zero hits.
TEST(Mac, RandomGuessesDoNotVerify) {
  Xoshiro256 rng(13);
  const Key64 key = rng.next_u64();
  const Digest32 tag = compute_digest(MacKind::HalfSipHash24, key, kMsg);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    const Digest32 guess = rng.next_u32();
    if (guess != tag) continue;
    ++hits;
  }
  EXPECT_LE(hits, 1);  // expected 100000/2^32 ~ 0
}

}  // namespace
}  // namespace p4auth::crypto
