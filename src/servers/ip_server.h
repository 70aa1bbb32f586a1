// The IP server: hosts the IP/ICMP/ARP engine, owns the header and receive
// pools, talks to every driver, consults the packet filter for each packet
// and completes transport TX requests (Figure 3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/chan/cookie_ring.h"
#include "src/net/ip.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class IpServer : public Server {
 public:
  struct Config {
    net::IpConfig ip;
    std::vector<int> ifindexes;
    bool use_pf = true;
    bool csum_offload = true;
    int rx_buffers_per_nic = 96;
    std::uint32_t rx_buf_size = 2048;
    // Sharded TCP plane: how many TCP replicas inbound TCP frames are
    // steered across (by 4-tuple hash).  1 = the classic single server.
    int tcp_shards = 1;
    // Receive-side aggregation at the IP -> TCP boundary: merge in-order
    // same-flow TCP segments of a coalesced RX burst into one kL4Rx
    // super-segment.  Off by default; meaningful only when the NIC
    // coalesces (only a coalesced interrupt carries more than one frame).
    bool gro = false;
    // RSS queue pairs per NIC.  IP posts rx_buffers_per_nic buffers per
    // queue so every ring stays fed, and fast-path frames consumed by the
    // transports come back as kDrvRxCredit instead of kDrvRx.
    int rx_queues = 1;
  };

  IpServer(NodeEnv* env, sim::SimCore* core, Config cfg);

  net::IpEngine* engine() { return engine_.get(); }

  // Receive-path accounting for the bench's msgs-per-frame datapoint:
  // channel messages sent up to the transports vs frames they carried.
  std::uint64_t l4_msgs() const { return l4_msgs_; }
  std::uint64_t l4_frames() const { return l4_frames_; }

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  void on_peer_down(const std::string& peer, sim::Context& ctx) override;
  void on_killed() override;

 private:
  void build_engine();
  void post_rx_buffers(int ifindex, sim::Context& ctx);
  static int ifindex_of(const std::string& driver);
  // The TCP replica an inbound segment is steered to: a 4-tuple hash over
  // (src, dst) and the ports read out of the frame.
  int steer(const net::L4Packet& pkt, int shards);
  // Sends one frame or one GRO aggregate up to its transport replica (the
  // kL4Rx leg).
  void send_l4(std::uint8_t protocol, std::span<const net::L4Packet> segs);

  Config cfg_;
  std::unique_ptr<net::IpEngine> engine_;
  chan::Pool* hdr_pool_ = nullptr;
  chan::Pool* rx_pool_ = nullptr;

  // Transport TX requests in flight, per sender (the tcp replicas, then
  // udp).  Each sender's FIFO is keyed by an IP-local sequence number and
  // holds the sender's own cookie; the engine carries the request as
  // l4 cookie (seq << 8) | sender.  A sender's cookies rise and reach us
  // over one FIFO channel, so the oldest entry holds its lowest cookie
  // still in flight here: that is what makes kIpTxDone's mark sound.
  struct L4Sender {
    std::string name;
    chan::CookieRing<std::uint64_t> reqs;
    std::uint64_t next_seq = 1;
  };
  static constexpr int kL4SenderBits = 8;
  // The sender slot of `name`, added on first use.
  std::size_t l4_sender(const std::string& name);
  void l4_done(std::uint64_t l4_cookie, bool sent);
  std::vector<L4Sender> l4_senders_;
  // Frame-chain descriptors we packed for drivers, freed on completion.
  std::unordered_map<std::uint64_t, chan::RichPtr> drv_descs_;
  std::map<int, int> posted_;  // rx buffers outstanding per ifindex
  std::uint64_t store_get_req_ = 0;
  std::uint64_t l4_msgs_ = 0;
  std::uint64_t l4_frames_ = 0;
};

}  // namespace newtos::servers
