// HULA wire formats (probe / data / probe-generation trigger).
//
// The probe carries the max path utilization from its origin ToR (the
// paper's `probeUtil`, the field the Fig. 3 adversary rewrites) plus an
// INT-style per-hop trace appended by every switch. The trace is what
// makes the digested byte count grow with hop count — the mechanism
// behind Fig 21's increasing P4Auth overhead.
//
// Probe layout: magic(1) originTor(2) maxUtil(1) hopCount(1), then
// hopCount records of node(2) ingress(2) util(1) pad(3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace p4auth::apps::hula {

inline constexpr std::uint8_t kProbeMagic = 0x48;    // 'H'
inline constexpr std::uint8_t kDataMagic = 0x44;     // 'D'
inline constexpr std::uint8_t kProbeGenMagic = 0x47; // 'G'

struct HopRecord {
  NodeId node{};
  PortId ingress{};
  std::uint8_t util = 0;  ///< local link utilization this hop observed
  friend bool operator==(const HopRecord&, const HopRecord&) = default;
};

inline constexpr std::size_t kProbeHeaderSize = 5;
inline constexpr std::size_t kHopRecordSize = 8;  // 2+2+1+3 pad
/// The hop count is one byte: a trace holds at most 255 records.
inline constexpr std::size_t kMaxProbeHops = 255;

struct Probe {
  NodeId origin_tor{};       ///< the ToR this probe advertises a path to
  std::uint8_t max_util = 0; ///< max utilization along the path, 0..255
  std::vector<HopRecord> trace;

  friend bool operator==(const Probe&, const Probe&) = default;
};

/// A validated probe frame, read in place: the fields come straight from
/// the borrowed wire bytes. Valid only while those bytes live.
class ProbeView {
 public:
  NodeId origin_tor() const noexcept { return NodeId{load_be16(frame_.data() + 1)}; }
  std::uint8_t max_util() const noexcept { return frame_[3]; }
  std::size_t hops() const noexcept { return frame_[4]; }
  /// Trace record `i`, for i < hops(). Pad bytes are not read.
  HopRecord hop(std::size_t i) const noexcept {
    const std::uint8_t* p = frame_.data() + kProbeHeaderSize + i * kHopRecordSize;
    return HopRecord{NodeId{load_be16(p)}, PortId{load_be16(p + 2)}, p[4]};
  }
  std::span<const std::uint8_t> frame() const noexcept { return frame_; }

 private:
  friend Result<ProbeView> parse_probe(std::span<const std::uint8_t> frame);
  explicit ProbeView(std::span<const std::uint8_t> frame) noexcept : frame_(frame) {}

  std::span<const std::uint8_t> frame_;
};

/// The one probe validator: accepts a frame iff it carries the probe
/// magic and exactly hopCount records, with no trailing bytes.
Result<ProbeView> parse_probe(std::span<const std::uint8_t> frame);

/// Fails for a trace longer than kMaxProbeHops, which the one-byte hop
/// count cannot describe. Pad bytes are written as zero.
Result<Bytes> encode_probe(const Probe& probe);
/// parse_probe, then materialise the trace.
Result<Probe> decode_probe(std::span<const std::uint8_t> frame);

/// Writes into `out` the frame `probe` becomes after one more hop:
/// `max_util` replaces the header's, `hop` is appended, and the existing
/// records' pad bytes are zeroed — byte-equal to encode_probe of the
/// decoded probe plus `hop`. Requires probe.hops() < kMaxProbeHops.
/// Allocation-free when `out` has the capacity.
void write_forwarded_probe(const ProbeView& probe, std::uint8_t max_util, const HopRecord& hop,
                           Bytes& out);

/// Writes a freshly generated probe from `origin` (max_util 0) whose trace
/// is the single record `hop` — byte-equal to the matching encode_probe.
void write_new_probe(NodeId origin, const HopRecord& hop, Bytes& out);

struct DataPacket {
  NodeId dst_tor{};
  std::uint64_t flow_id = 0;
  std::uint32_t size_bytes = 0;  ///< declared payload size (for util accounting)

  friend bool operator==(const DataPacket&, const DataPacket&) = default;
};

Bytes encode_data(const DataPacket& packet);
Result<DataPacket> decode_data(std::span<const std::uint8_t> frame);

/// Harness-injected trigger telling a ToR to emit a fresh probe round.
Bytes encode_probe_gen();

}  // namespace p4auth::apps::hula
