// Receive-side aggregation (GRO), shared between the central IP engine's
// input_burst and the per-shard RX fast path: the per-frame classification
// and the loop that splits a burst into aggregates.
//
// The per-frame facts GRO needs to decide mergeability are parsed once per
// frame of a burst; ineligible frames re-parse on the classic input() path
// (they are the rare case by construction of the burst).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "src/chan/pool.h"
#include "src/net/addr.h"
#include "src/net/headers.h"
#include "src/net/ip.h"
#include "src/net/pf.h"

namespace newtos::net {

struct GroInfo {
  bool eligible = false;        // in-order-mergeable TCP data segment
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;
  std::uint16_t l4_offset = 0;
  std::uint16_t l4_length = 0;
  std::uint16_t payload_len = 0;
};

inline GroInfo gro_classify(std::span<const std::byte> bytes,
                            Ipv4Addr our_addr) {
  GroInfo info;
  if (bytes.size() < kEthHeaderLen + kIpHeaderLen) return info;
  ByteReader r{bytes};
  auto eth = EthHeader::parse(r);
  if (!eth || eth->ethertype != kEtherTypeIpv4) return info;
  auto ip = Ipv4Header::parse(r);
  if (!ip || ip->protocol != kProtoTcp || ip->dst != our_addr) return info;
  if (ip->total_length > bytes.size() - kEthHeaderLen) return info;
  const std::uint16_t l4_offset =
      static_cast<std::uint16_t>(kEthHeaderLen + kIpHeaderLen);
  const std::uint16_t l4_length =
      static_cast<std::uint16_t>(ip->total_length - kIpHeaderLen);
  if (l4_length < kTcpHeaderLen ||
      bytes.size() < static_cast<std::size_t>(l4_offset) + kTcpHeaderLen) {
    return info;
  }
  ByteReader tr{bytes.subspan(l4_offset, kTcpHeaderLen)};
  auto h = TcpHeader::parse(tr);
  if (!h) return info;
  const std::uint16_t payload =
      static_cast<std::uint16_t>(l4_length - kTcpHeaderLen);
  // Only plain in-stream data merges: SYN/FIN/RST (and anything else
  // exotic) must be seen by TCP one segment at a time, and a pure ACK
  // carries sender-clocking information per frame.
  if (payload == 0 ||
      (h->flags & ~(tcpflag::kAck | tcpflag::kPsh)) != 0 ||
      !h->has(tcpflag::kAck)) {
    return info;
  }
  info.eligible = true;
  info.src = ip->src;
  info.dst = ip->dst;
  info.sport = h->src_port;
  info.dport = h->dst_port;
  info.seq = h->seq;
  info.flags = h->flags;
  info.l4_offset = l4_offset;
  info.l4_length = l4_length;
  info.payload_len = payload;
  return info;
}

// Splits a burst into GRO aggregates: runs of consecutive, in-order,
// same-4-tuple TCP data segments addressed to `ifp`.  A PSH frame ends its
// run; flags beyond ACK/PSH, out-of-order arrivals and flow changes flush
// the run under construction.  Every run of two or more frames goes to
// `agg(L4AggPacket&&, const PfQuery&)` with the inbound PF query that
// judges the whole run (flags ACK, plus PSH when a member pushed); every
// other frame —
// ineligible, or a run of one — goes to `single(frame)`, so single-frame
// behavior is exactly the per-frame path.  Both are called in arrival
// order: a caller that files PF queries must file an aggregate's before a
// later single frame files its own (PF answers in submission order and
// delivery follows verdict order).
template <typename SingleFn, typename AggFn>
inline void gro_split(chan::PoolRegistry& pools, const Interface* ifp,
                      std::span<const chan::RichPtr> frames,
                      SingleFn&& single, AggFn&& agg) {
  L4AggPacket run;              // aggregate under construction
  std::uint32_t next_seq = 0;
  bool psh = false;             // a PSH frame closes its aggregate
  auto finish = [&] {
    if (run.segs.size() == 1) {
      single(run.segs.front().frame);
    } else if (!run.segs.empty()) {
      PfQuery q;
      q.dir = PfDir::In;
      q.protocol = kProtoTcp;
      q.src = run.src;
      q.dst = run.dst;
      q.sport = run.sport;
      q.dport = run.dport;
      q.tcp_flags = psh ? static_cast<std::uint8_t>(tcpflag::kAck |
                                                    tcpflag::kPsh)
                        : tcpflag::kAck;
      agg(std::move(run), q);
    }
    run = L4AggPacket{};
  };
  for (const chan::RichPtr& frame : frames) {
    const GroInfo info = ifp == nullptr
                             ? GroInfo{}
                             : gro_classify(pools.read(frame), ifp->addr);
    if (!info.eligible) {
      finish();
      single(frame);
      continue;
    }
    const bool continues = !run.segs.empty() && !psh &&
                           info.src == run.src && info.sport == run.sport &&
                           info.dport == run.dport && info.seq == next_seq;
    if (!continues) finish();
    if (run.segs.empty()) {
      run.src = info.src;
      run.dst = info.dst;
      run.sport = info.sport;
      run.dport = info.dport;
      psh = false;
    }
    run.segs.push_back(L4Packet{frame, info.l4_offset, info.l4_length,
                                info.src, info.dst});
    next_seq = info.seq + info.payload_len;
    if ((info.flags & tcpflag::kPsh) != 0) psh = true;
  }
  finish();
}

}  // namespace newtos::net
