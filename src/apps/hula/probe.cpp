#include "apps/hula/probe.hpp"

#include <cassert>
#include <cstring>

namespace p4auth::apps::hula {
namespace {

void write_header(std::uint8_t* p, NodeId origin, std::uint8_t max_util,
                  std::size_t hops) noexcept {
  p[0] = kProbeMagic;
  store_be16(p + 1, origin.value);
  p[3] = max_util;
  p[4] = static_cast<std::uint8_t>(hops);
}

void write_hop(std::uint8_t* p, const HopRecord& hop) noexcept {
  store_be16(p, hop.node.value);
  store_be16(p + 2, hop.ingress.value);
  p[4] = hop.util;
  std::memset(p + 5, 0, kHopRecordSize - 5);
}

}  // namespace

Result<ProbeView> parse_probe(std::span<const std::uint8_t> frame) {
  if (frame.empty() || frame[0] != kProbeMagic) return make_error("not a HULA probe");
  if (frame.size() < kProbeHeaderSize) return make_error("probe truncated");
  const std::size_t size = kProbeHeaderSize + std::size_t{frame[4]} * kHopRecordSize;
  if (frame.size() < size) return make_error("probe trace truncated");
  if (frame.size() > size) return make_error("probe has trailing bytes");
  return ProbeView(frame);
}

Result<Bytes> encode_probe(const Probe& probe) {
  if (probe.trace.size() > kMaxProbeHops) return make_error("probe trace exceeds 255 hops");
  Bytes out(kProbeHeaderSize + probe.trace.size() * kHopRecordSize);
  write_header(out.data(), probe.origin_tor, probe.max_util, probe.trace.size());
  std::uint8_t* p = out.data() + kProbeHeaderSize;
  for (const auto& hop : probe.trace) {
    write_hop(p, hop);
    p += kHopRecordSize;
  }
  return out;
}

Result<Probe> decode_probe(std::span<const std::uint8_t> frame) {
  const auto view = parse_probe(frame);
  if (!view.ok()) return view.error();
  Probe probe;
  probe.origin_tor = view.value().origin_tor();
  probe.max_util = view.value().max_util();
  probe.trace.reserve(view.value().hops());
  for (std::size_t i = 0; i < view.value().hops(); ++i) {
    probe.trace.push_back(view.value().hop(i));
  }
  return probe;
}

void write_forwarded_probe(const ProbeView& probe, std::uint8_t max_util, const HopRecord& hop,
                           Bytes& out) {
  assert(probe.hops() < kMaxProbeHops);
  const auto in = probe.frame();
  out.resize(in.size() + kHopRecordSize);
  std::uint8_t* p = out.data();
  std::memcpy(p, in.data(), in.size());
  write_header(p, probe.origin_tor(), max_util, probe.hops() + 1);
  // The incoming pads are not validated; the encoder writes them as zero.
  for (std::size_t pad = kProbeHeaderSize + 5; pad < in.size(); pad += kHopRecordSize) {
    std::memset(p + pad, 0, kHopRecordSize - 5);
  }
  write_hop(p + in.size(), hop);
}

void write_new_probe(NodeId origin, const HopRecord& hop, Bytes& out) {
  out.resize(kProbeHeaderSize + kHopRecordSize);
  write_header(out.data(), origin, /*max_util=*/0, /*hops=*/1);
  write_hop(out.data() + kProbeHeaderSize, hop);
}

Bytes encode_data(const DataPacket& packet) {
  Bytes out;
  ByteWriter w(out);
  w.u8(kDataMagic).u16(packet.dst_tor.value).u64(packet.flow_id).u32(packet.size_bytes);
  return out;
}

Result<DataPacket> decode_data(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kDataMagic) return make_error("not a HULA data packet");
  if (r.remaining() < 14) return make_error("data packet truncated");
  DataPacket packet;
  packet.dst_tor = NodeId{r.u16().value()};
  packet.flow_id = r.u64().value();
  packet.size_bytes = r.u32().value();
  return packet;
}

Bytes encode_probe_gen() { return Bytes{kProbeGenMagic}; }

}  // namespace p4auth::apps::hula
