#include "src/servers/driver_server.h"

#include <algorithm>
#include <span>

#include "src/net/headers.h"
#include "src/net/pbuf.h"

namespace newtos::servers {

DriverServer::DriverServer(NodeEnv* env, sim::SimCore* core, drv::SimNic* nic,
                           int ifindex, std::string ip_name)
    : Server(env, driver_name(ifindex), core),
      nic_(nic),
      ifindex_(ifindex),
      ip_name_(std::move(ip_name)) {
  rx_dropped_q_.resize(nic_->rx_queue_count(), 0);
}

void DriverServer::enable_fast_path(int tcp_shards) {
  fast_path_ = true;
  tcp_shards_ = std::max(1, tcp_shards);
}

std::string DriverServer::fast_target(const drv::SimNic::RxCompletion& c,
                                      int queue) const {
  if (!fast_path_ || !c.steerable) return {};
  // A frame goes fast only when its home shard IS the queue's shard: the
  // NIC hash and steer_shard agree by construction, so with rx_queues ==
  // shards every steerable frame qualifies; with fewer queues the rest
  // keeps the classic path (and rx_queues = 1 means nothing ever does).
  // UDP has one server, so only queue 0's UDP frames go fast.
  if (c.proto == net::kProtoTcp) {
    const int shard =
        static_cast<int>(c.rss_hash % static_cast<std::uint32_t>(tcp_shards_));
    return shard == queue ? tcp_shard_name(shard) : std::string{};
  }
  return queue == 0 ? kUdpName : std::string{};
}

void DriverServer::send_rx_credit(std::size_t frames, sim::Context& ctx) {
  if (frames == 0) return;
  // Fast-path frames consumed RX buffers IP never saw: tell it how many so
  // it keeps the rings fed.  If IP is down the posted-count reset on its
  // restart covers the difference.
  chan::Message m;
  m.opcode = kDrvRxCredit;
  m.arg0 = frames;
  send_to(ip_name_, m, ctx);
}

std::size_t DriverServer::send_run(
    const std::string& target, std::span<const drv::SimNic::RxCompletion> run,
    sim::Context& ctx, int queue) {
  std::vector<WireRxFrame> recs(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    recs[i].frame = run[i].buffer;
    recs[i].frame.length = run[i].len;  // actual frame length in the buffer
  }
  std::vector<bool> refused(run.size(), false);
  chan::Message m;
  m.opcode = kDrvRx;
  m.arg1 = static_cast<std::uint64_t>(ifindex_);
  send_records<WireRxFrame>(
      burst_pool_, m, recs,
      [&](const chan::Message& msg) {
        ++rx_msgs_;
        return send_to(target, msg, ctx);
      },
      [&](std::size_t i) { refused[i] = true; });
  std::vector<drv::SimNic::RxCompletion> to_ip;  // refused by the target
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (refused[i]) to_ip.push_back(run[i]);
  }
  if (target == ip_name_) {
    // IP is down or its queue is full: the frames are dropped; the buffers
    // themselves belong to IP's pool and are recovered when IP reposts.
    // Not silent: the drops are counted and surfaced through
    // Node::publish_channel_stats.
    rx_dropped_ += to_ip.size();
    if (queue < static_cast<int>(rx_dropped_q_.size()))
      rx_dropped_q_[queue] += to_ip.size();
    return 0;
  }
  // The frames the replica took are on loan to it: if it dies with the
  // message still queued, IP's reclaim on the replica's restart recovers
  // them (the replica note_returns each frame as it unpacks).
  const char proto = run.front().proto == net::kProtoUdp ? 'U' : 'T';
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (refused[i]) continue;
    chan::Pool* pool = env().pools->find(run[i].buffer.pool);
    if (pool != nullptr)
      pool->note_borrow(run[i].buffer, transport_borrower(proto, queue));
  }
  // A replica that is down or backlogged (reincarnation in progress) has
  // its queue drain through the classic IP path until it is back.
  if (!to_ip.empty()) send_run(ip_name_, to_ip, ctx, queue);
  const std::size_t fast = run.size() - to_ip.size();
  rx_fast_frames_ += fast;
  return fast;
}

void DriverServer::start(bool restart) {
  expose_in_queue(ip_name_, 512);
  connect_out(ip_name_);
  if (fast_path_) {
    for (int s = 0; s < tcp_shards_; ++s) connect_out(tcp_shard_name(s));
    connect_out(kUdpName);
  }
  if (env().knobs.supervision) {
    expose_in_queue(kRsName, 64);
    connect_out(kRsName);
  }
  if (nic_->coalescing()) {
    burst_pool_ = env().get_pool(name() + ".buf", 1u << 20);
  }
  install_device_handlers();
  if (restart) {
    // A restarted driver cannot trust the device state it inherited
    // (Section V-D): full reset, link bounces, IP resubmits.
    nic_->reset();
  }
  if (env().knobs.supervision) {
    // Arm the device wedge watchdog.  TimerAdapter invalidates by
    // incarnation, so every restart re-arms a fresh one here.
    wd_last_phy_ = nic_->stats().rx_phy_frames;
    wd_last_rx_ = nic_->stats().rx_frames;
    wedge_strikes_ = 0;
    timers()->schedule(kWatchdogInterval, [this] { watchdog_tick(); });
  }
  announce(restart);
}

void DriverServer::watchdog_tick() {
  // e1000-style "hung adapter" heuristic: the MAC's good-packets counter
  // advances but no completed descriptor reaches the driver, with the link
  // up.  Two consecutive flat intervals mean the device is wedged (not just
  // a quiet wire — a quiet wire leaves BOTH counters flat); reset it.
  const auto& s = nic_->stats();
  const bool phy_advanced = s.rx_phy_frames != wd_last_phy_;
  const bool rx_advanced = s.rx_frames != wd_last_rx_;
  wd_last_phy_ = s.rx_phy_frames;
  wd_last_rx_ = s.rx_frames;
  if (nic_->link_up() && phy_advanced && !rx_advanced) {
    if (++wedge_strikes_ >= 2) {
      wedge_strikes_ = 0;
      ++wedge_resets_;
      // The reset clears the wedge (a misconfigured card reconfigures from
      // scratch) at the price of a link bounce; IP resubmits.
      tx_backlog_.clear();
      nic_->reset();
    }
  } else {
    wedge_strikes_ = 0;
  }
  timers()->schedule(kWatchdogInterval, [this] { watchdog_tick(); });
}

void DriverServer::install_device_handlers() {
  const std::uint32_t inc = incarnation();
  // Interrupts are converted to kernel messages by the microkernel
  // (Section V-B); each handler charges the receive path on our core.
  nic_->set_tx_done([this, inc](std::uint64_t cookie, bool ok) {
    if (incarnation() != inc) return;
    post_kernel_msg(
        [this, cookie, ok](sim::Context& ctx) {
          chan::Message m;
          m.opcode = kDrvTxDone;
          m.req_id = cookie;
          m.arg0 = ok ? 1 : 0;
          send_to(ip_name_, m, ctx);
          drain_backlog(ctx);  // a ring slot just freed up
        },
        100);
  });
  nic_->set_rx_burst([this, inc](int queue,
                                 std::vector<drv::SimNic::RxCompletion>&&
                                     burst) {
    if (incarnation() != inc) return;
    // ONE kernel message per interrupt: with coalescing the trap, the
    // receive and the mwait wakeup are amortized over the whole burst.  The
    // per-frame descriptor work is still charged per frame.
    post_kernel_msg(
        [this, queue, burst = std::move(burst)](sim::Context& ctx) {
          charge(ctx, sim().costs().drv_packet_proc *
                          static_cast<sim::Cycles>(burst.size()));
          rx_frames_ += burst.size();
          // Split the burst into consecutive runs per target: the queue's
          // home replica for fast-eligible frames, IP for the rest.  A
          // single-target burst (every classic device) stays one message.
          std::size_t fast = 0;
          std::size_t i = 0;
          while (i < burst.size()) {
            const std::string target = fast_target(burst[i], queue);
            std::size_t j = i + 1;
            while (j < burst.size() && fast_target(burst[j], queue) == target)
              ++j;
            fast += send_run(target.empty() ? ip_name_ : target,
                             {burst.data() + i, j - i}, ctx, queue);
            i = j;
          }
          send_rx_credit(fast, ctx);
        },
        100);
  });
  nic_->set_link_change([this, inc](bool up) {
    if (incarnation() != inc) return;
    post_kernel_msg(
        [this, up](sim::Context& ctx) {
          if (up) drain_backlog(ctx);  // the reset emptied the TX ring
          chan::Message m;
          m.opcode = kDrvLink;
          m.arg0 = up ? 1 : 0;
          send_to(ip_name_, m, ctx);
        },
        50);
  });
}

void DriverServer::on_message(const std::string& from, const chan::Message& m,
                              sim::Context& ctx) {
  (void)from;
  switch (m.opcode) {
    case kDrvTx: {
      charge(ctx, sim().costs().drv_packet_proc);
      auto chain = net::unpack_chain(*env().pools, m.ptr);
      if (!chain) {
        chan::Message done;
        done.opcode = kDrvTxDone;
        done.req_id = m.req_id;
        done.arg0 = 0;
        send_to(ip_name_, done, ctx);
        return;
      }
      net::TxFrame frame;
      frame.header = chain->header;
      frame.payload = std::move(chain->payload);
      frame.offload = chain->offload;
      drain_backlog(ctx);  // opportunistic: ring slots may have freed up
      if (!tx_backlog_.empty() || nic_->tx_ring_free() == 0) {
        if (tx_backlog_.size() >= kMaxBacklog) {
          // Shed load: tell IP the frame was not accepted (never block).
          chan::Message done;
          done.opcode = kDrvTxDone;
          done.req_id = m.req_id;
          done.arg0 = 0;
          send_to(ip_name_, done, ctx);
          return;
        }
        tx_backlog_.emplace_back(std::move(frame), m.req_id);
        return;
      }
      nic_->tx_post(std::move(frame), m.req_id);
      return;
    }
    case kDrvRxBuf: {
      charge(ctx, 80);
      // Feed the emptiest queue ring: RSS load is hash-spread, so keeping
      // the rings level keeps every queue fed.  Single-queue devices see
      // exactly the old rx_post.
      int best = 0;
      for (int q = 1; q < nic_->rx_queue_count(); ++q) {
        if (nic_->rx_ring_level(q) < nic_->rx_ring_level(best)) best = q;
      }
      nic_->rx_post(best, m.ptr);
      return;
    }
    default:
      return;  // validate-and-ignore (Section IV-A)
  }
}

void DriverServer::drain_backlog(sim::Context& ctx) {
  (void)ctx;
  while (!tx_backlog_.empty() && nic_->tx_ring_free() > 0) {
    auto [frame, cookie] = std::move(tx_backlog_.front());
    tx_backlog_.pop_front();
    nic_->tx_post(std::move(frame), cookie);
  }
}

void DriverServer::on_peer_up(const std::string& peer, bool restarted,
                              sim::Context& ctx) {
  (void)ctx;
  if (peer == ip_name_ && restarted) {
    // The Intel gigabit adapters have no knob to invalidate their shadow
    // copies of the RX/TX descriptors, which point into the dead IP's pools:
    // a crash of IP means de facto restart of the network drivers too
    // (Section V-D).  Frames queued for the dead incarnation are dropped;
    // the new IP resubmits what still matters.
    tx_backlog_.clear();
    nic_->reset();
  }
}

}  // namespace newtos::servers
