// UDP: sockets, datagram send/receive.
//
// UDP's recoverable state is exactly Table I's description: "small state per
// socket, low frequency of change" — the 4-tuple of every open socket.  The
// snapshot/restore pair below is what the UDP server stores in the storage
// server and reloads after a crash.  One engine serves the whole node: the
// UDP server is never sharded, so every socket and port lives here.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chan/cookie_ring.h"
#include "src/chan/pool.h"
#include "src/net/env.h"
#include "src/net/ip.h"
#include "src/net/steering.h"

namespace newtos::net {

using SockId = std::uint32_t;

class UdpEngine {
 public:
  struct Env {
    Clock* clock = nullptr;
    chan::PoolRegistry* pools = nullptr;
    chan::Pool* buf_pool = nullptr;  // UDP-owned: headers + payload staging
    std::function<void(TxSeg&&, std::uint64_t cookie)> output;  // to IP
    std::function<void(const chan::RichPtr&)> rx_done;          // to IP
    std::function<void(SockId)> notify_readable;
    // Source-address selection for unbound sockets (host wires to IP config).
    std::function<Ipv4Addr(Ipv4Addr dst)> src_for;
  };

  struct Stats {
    std::uint64_t datagrams_out = 0;
    std::uint64_t datagrams_in = 0;
    std::uint64_t dropped_no_socket = 0;
    std::uint64_t dropped_queue_full = 0;
    std::uint64_t dropped_malformed = 0;
  };

  explicit UdpEngine(Env env);
  // Releases queued receive frames and in-flight TX chunks.
  ~UdpEngine();

  UdpEngine(const UdpEngine&) = delete;
  UdpEngine& operator=(const UdpEngine&) = delete;

  // --- socket API ---------------------------------------------------------------
  SockId open();
  bool bind(SockId s, Ipv4Addr local, std::uint16_t port);  // port 0: ephemeral
  bool connect(SockId s, Ipv4Addr peer, std::uint16_t port);  // presets dest
  void close(SockId s);

  chan::RichPtr alloc_payload(std::uint32_t len);
  // Sends `payload` (a chunk in buf_pool; ownership passes to the engine) to
  // dst:port, or to the connected peer when dst is zero.
  bool sendto(SockId s, chan::RichPtr payload, Ipv4Addr dst,
              std::uint16_t port);

  struct Datagram {
    std::vector<std::byte> data;
    Ipv4Addr src;
    std::uint16_t sport = 0;
  };
  // Legacy copy path: implemented over recv_zc() plus one memcpy.
  std::optional<Datagram> recv(SockId s);
  bool readable(SockId s) const;

  // --- zero-copy receive (Section V-C) -----------------------------------------
  // A borrowed datagram: `data` is a read-only sub-range rich pointer over
  // the payload inside the live frame chunk; `frame` is the whole chunk.
  // The frame reference transfers to the caller, who must hand it back via
  // release_rx() (or directly to the owning pool) exactly once.
  struct BorrowedRx {
    chan::RichPtr frame;
    chan::RichPtr data;
    Ipv4Addr src;
    std::uint16_t sport = 0;
  };
  std::optional<BorrowedRx> recv_zc(SockId s);
  // Reports a borrowed frame done to its owner (kL4RxDone towards IP).
  void release_rx(const chan::RichPtr& frame) { env_.rx_done(frame); }

  // Teardown/crash support: replaces the rx_done report with a direct
  // release through the pool registry.  A dying or destructed host has no
  // handler context to send kL4RxDone messages from.
  void detach_rx_done() {
    env_.rx_done = [pools = env_.pools](const chan::RichPtr& frame) {
      pools->release(frame);
    };
  }

  // --- from IP -------------------------------------------------------------------
  void input(L4Packet&& pkt);
  // IP finished the datagram sent under `cookie`, and every one below
  // `mark` (0: no mark): their chunks are freed.
  void seg_done(std::uint64_t cookie, bool sent, std::uint64_t mark = 0);
  // Moves the datagram in flight under `cookie`, if any, to a fresh cookie
  // (the newest) and returns that cookie.  Resubmitting to a restarted IP
  // this way keeps the cookies IP sees rising.
  std::uint64_t renumber(std::uint64_t cookie);

  // --- recovery (Section V-D) ------------------------------------------------------
  struct SockRec {
    SockId id = 0;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
  };
  std::vector<SockRec> snapshot() const;
  // Creates or updates the socket each record names, keeping any queued
  // receive backlog.
  void restore(const std::vector<SockRec>& socks);
  // The current record of one socket.
  std::optional<SockRec> record(SockId s) const;
  static std::vector<std::byte> serialize_socks(const std::vector<SockRec>&);
  static std::optional<std::vector<SockRec>> parse_socks(
      std::span<const std::byte>);
  // PF state recovery support: active 4-tuples.
  std::vector<PfStateKey> connection_keys() const;

  const Stats& stats() const { return stats_; }
  std::size_t socket_count() const { return socks_.size(); }

 private:
  struct RxItem {
    chan::RichPtr frame;
    std::uint16_t data_offset = 0;
    std::uint16_t data_len = 0;
    Ipv4Addr src;
    std::uint16_t sport = 0;
  };
  struct Sock {
    SockId id = 0;
    Ipv4Addr local;
    std::uint16_t lport = 0;
    Ipv4Addr peer;
    std::uint16_t pport = 0;
    std::deque<RxItem> rxq;
  };
  struct PendingSeg {
    chan::RichPtr header;
    chan::RichPtr payload;
  };

  void release(const PendingSeg& seg);

  Sock* find(SockId s);
  const Sock* find(SockId s) const;
  std::uint16_t ephemeral_port();

  Env env_;
  Stats stats_;
  SockId next_sock_ = 1;
  std::uint16_t next_port_ = 20000;
  std::uint64_t next_cookie_ = 1;
  std::unordered_map<SockId, Sock> socks_;
  std::unordered_map<std::uint16_t, SockId> bound_;  // lport -> socket
  // Datagrams awaiting IP's done-report, by cookie.
  chan::CookieRing<PendingSeg> inflight_;

  static constexpr std::size_t kMaxRxQueue = 64;
};

}  // namespace newtos::net
