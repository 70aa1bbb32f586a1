// The IP component: routing, Ethernet framing, ARP, ICMP, the packet-filter
// T junction, and ownership of the receive pool drivers DMA into.
//
// IP is the only component that talks to drivers (Section V, Figure 3).  For
// every packet it hands work to another component three times: to PF for the
// verdict, to the driver for transmission, and (on receive) up to TCP/UDP.
// All hand-offs are asynchronous; IP keeps pending packets in internal
// tables keyed by cookies and the hosting server maps those cookies onto
// its request database.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chan/pool.h"
#include "src/net/addr.h"
#include "src/net/arp.h"
#include "src/net/env.h"
#include "src/net/headers.h"
#include "src/net/pbuf.h"
#include "src/net/pf.h"

namespace newtos::net {

struct Interface {
  int index = 0;
  MacAddr mac;
  Ipv4Addr addr;
  Ipv4Net subnet;
  std::uint32_t mtu = 1500;
};

struct Route {
  Ipv4Net dest;        // 0.0.0.0/0 for the default route
  Ipv4Addr gateway;    // 0.0.0.0 when the destination is on-link
  int ifindex = 0;
};

// The small static state that makes IP easy to restart (Table I): interface
// addressing and routes, saved in the storage server.
struct IpConfig {
  std::vector<Interface> interfaces;
  std::vector<Route> routes;

  std::vector<std::byte> serialize() const;
  static std::optional<IpConfig> parse(std::span<const std::byte>);
};

// A packet delivered up to TCP/UDP: the frame stays where the NIC put it
// (one chunk in IP's receive pool); only offsets travel.
struct L4Packet {
  chan::RichPtr frame;        // whole-frame chunk; release via rx_done
  std::uint16_t l4_offset = 0;  // where the transport header starts
  std::uint16_t l4_length = 0;  // transport header + payload length
  Ipv4Addr src;
  Ipv4Addr dst;
};

// A GRO super-segment: consecutive in-order TCP segments of one flow,
// merged at the IP -> TCP boundary so the transport pays its per-segment
// charge once per aggregate.  Because all members share one 4-tuple, an
// aggregate can never span transport shards.
struct L4AggPacket {
  std::vector<L4Packet> segs;   // in arrival order, seq-consecutive
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t sport = 0;      // steering tuple (remote end first)
  std::uint16_t dport = 0;
};

class IpEngine {
 public:
  struct Env {
    Clock* clock = nullptr;
    TimerService* timers = nullptr;
    chan::PoolRegistry* pools = nullptr;
    chan::Pool* hdr_pool = nullptr;  // IP-owned: frame headers, ARP, ICMP
    chan::Pool* rx_pool = nullptr;   // IP-owned: drivers DMA received frames here

    // Hand a frame to the driver of `ifindex`.  The driver answers through
    // tx_done(cookie, ok).
    std::function<void(int ifindex, TxFrame&&, std::uint64_t cookie)>
        send_frame;
    // Ask the packet filter about one or more packets (the aggregates of
    // one RX burst travel together).  Each verdict arrives via
    // pf_verdict(cookie).  May be empty: no filter configured, everything
    // passes.
    std::function<void(std::span<const std::pair<PfQuery, std::uint64_t>>)>
        pf_check;
    // Deliver transport payloads upward: one packet, or a GRO aggregate
    // (consecutive in-order segments of one TCP flow).
    std::function<void(std::uint8_t protocol, std::span<const L4Packet>)>
        deliver;
    // Completion towards L4: the segment with `l4_cookie` was transmitted
    // (or dropped, sent=false).  Only after this may L4 free its header.
    std::function<void(std::uint64_t l4_cookie, bool sent)> seg_done;

    bool csum_offload = true;  // NIC finishes L4 checksums on TX
  };

  struct Stats {
    std::uint64_t tx_segs = 0;
    std::uint64_t tx_frames = 0;
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_delivered = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_pf = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t dropped_arp_timeout = 0;
    std::uint64_t icmp_echo_replies = 0;
    std::uint64_t gro_aggs = 0;    // aggregates delivered (>= 2 frames each)
    std::uint64_t gro_frames = 0;  // frames merged into aggregates
  };

  IpEngine(Env env, IpConfig cfg);

  // --- L4 -> IP ----------------------------------------------------------------
  // Takes ownership of seg.l4_header (freed back to its owner by seg_done)
  // and of the payload refs for the duration of transmission.
  void output(TxSeg&& seg, std::uint64_t l4_cookie);

  // --- driver -> IP ------------------------------------------------------------
  void input(int ifindex, chan::RichPtr frame);
  // A coalesced RX burst, split by net/gro.h's gro_split: aggregates are
  // delivered whole (after one PF query each, batched per burst);
  // everything else takes the exact per-frame input() path.
  void input_burst(int ifindex, std::span<const chan::RichPtr> frames);
  void tx_done(std::uint64_t cookie, bool ok);

  // --- PF -> IP ------------------------------------------------------------------
  void pf_verdict(std::uint64_t cookie, bool allow);
  // After a PF crash: resubmit every unanswered query (no packet is ever
  // lost across a PF restart, Section V-D).  Returns how many were resent.
  std::size_t resubmit_pf_pending();
  // After a driver crash: the acks for in-flight frames will never arrive;
  // IP prefers duplicates over losses and resubmits them (Section V-D,
  // "Drivers").  Returns how many frames were resent.
  std::size_t resubmit_tx(int ifindex);

  // --- L4 -> IP (receive-pool bookkeeping) --------------------------------------
  // L4 finished with a delivered frame chunk.
  void rx_done(const chan::RichPtr& frame);
  // Allocate / hand out receive buffers for drivers.
  chan::RichPtr alloc_rx_buffer(std::uint32_t len);

  // --- recovery -----------------------------------------------------------------
  const IpConfig& config() const { return cfg_; }
  void set_config(IpConfig cfg) { cfg_ = std::move(cfg); }

  const Stats& stats() const { return stats_; }
  ArpEngine& arp() { return arp_; }

  // Number of TX requests whose driver ack is still outstanding.
  std::size_t tx_pending() const { return tx_pending_.size(); }

 private:
  struct PendingTx {   // waiting for the driver's transmit ack
    std::uint64_t l4_cookie = 0;
    bool internal = false;        // ICMP/ARP replies: no L4 to notify
    chan::RichPtr frame_hdr;      // chunk to free on completion
    int ifindex = 0;
    TxFrame frame;                // kept for resubmission after driver crash
  };
  struct PendingPf {   // waiting for a PF verdict
    PfQuery query;
    bool outbound = false;
    // outbound:
    TxSeg seg;
    std::uint64_t l4_cookie = 0;
    // inbound:
    int ifindex = 0;
    chan::RichPtr frame;
    std::uint16_t l4_offset = 0;
    std::uint16_t l4_length = 0;
    Ipv4Header ip_hdr;
    // inbound GRO aggregate (is_agg: `agg` replaces `frame`):
    bool is_agg = false;
    L4AggPacket agg;
  };
  struct AwaitingArp {  // routed, allowed, waiting for next-hop MAC
    TxSeg seg;
    std::uint64_t l4_cookie = 0;
    int ifindex = 0;
  };

  // Internal TX requests (ICMP replies) are distinguished from L4 cookies by
  // this bit; completion then frees the IP-owned chunk instead of calling up.
  static constexpr std::uint64_t kInternalCookieBase = std::uint64_t{1} << 62;

  std::optional<std::pair<int, Ipv4Addr>> route(Ipv4Addr dst) const;
  const Interface* iface(int ifindex) const;
  void finish_l4(std::uint64_t l4_cookie, bool sent);
  void continue_output(TxSeg&& seg, std::uint64_t l4_cookie, int ifindex,
                       Ipv4Addr next_hop);
  void transmit(TxSeg&& seg, std::uint64_t l4_cookie, int ifindex,
                MacAddr dst_mac);
  void deliver_inbound(int ifindex, chan::RichPtr frame,
                       const Ipv4Header& ip_hdr, std::uint16_t l4_offset,
                       std::uint16_t l4_length);
  // Files one PF query for a packet already in pf_pending_.
  void query_pf(const PfQuery& q, std::uint64_t cookie);
  void deliver_agg(L4AggPacket&& agg);
  void drop_agg(L4AggPacket&& agg);
  void handle_icmp(int ifindex, const chan::RichPtr& frame,
                   const Ipv4Header& ip_hdr, std::uint16_t l4_offset,
                   std::uint16_t l4_length);
  void send_arp_frame(int ifindex, const ArpPacket& pkt);
  void arp_resolved(int ifindex, Ipv4Addr ip, MacAddr mac);
  void drop_seg(TxSeg&& seg, std::uint64_t l4_cookie);

  Env env_;
  IpConfig cfg_;
  ArpEngine arp_;
  Stats stats_;

  std::uint16_t next_ip_id_ = 1;
  std::uint64_t next_cookie_ = 1;
  std::unordered_map<std::uint64_t, PendingTx> tx_pending_;
  std::unordered_map<std::uint64_t, PendingPf> pf_pending_;
  std::unordered_map<std::uint32_t, std::deque<AwaitingArp>> arp_waiting_;
  std::unordered_map<std::uint64_t, chan::RichPtr> internal_inflight_;
};

}  // namespace newtos::net
