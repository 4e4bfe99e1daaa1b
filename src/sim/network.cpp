#include "rcs/sim/network.hpp"

#include <algorithm>

#include "rcs/common/logging.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::sim {

namespace {
/// Fibonacci hash of a packed link key onto a power-of-two bucket count.
std::size_t bucket_of(std::uint64_t k, std::size_t mask) {
  return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}
}  // namespace

std::uint64_t Network::key(HostId a, HostId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (lo << 32) | hi;
}

void Network::rehash(std::size_t buckets) {
  index_.assign(buckets, kNoEntry);
  const std::size_t mask = buckets - 1;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    std::size_t slot = bucket_of(entries_[i].key, mask);
    while (index_[slot] != kNoEntry) slot = (slot + 1) & mask;
    index_[slot] = i;
  }
}

Network::LinkEntry& Network::entry(std::uint64_t k) {
  if (!index_.empty()) {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = bucket_of(k, mask);
    while (index_[slot] != kNoEntry) {
      LinkEntry& e = entries_[index_[slot]];
      if (e.key == k) return e;
      slot = (slot + 1) & mask;
    }
  }
  // Grow at 50% load so probe chains stay short; entries_ is a deque, so the
  // LinkEntry references handed out below survive every rehash.
  if (index_.empty() || (entries_.size() + 1) * 2 >= index_.size()) {
    rehash(std::max<std::size_t>(16, index_.size() * 2));
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = bucket_of(k, mask);
  while (index_[slot] != kNoEntry) slot = (slot + 1) & mask;
  index_[slot] = static_cast<std::uint32_t>(entries_.size());
  LinkEntry& e = entries_.emplace_back();
  e.key = k;
  e.params = default_link_;
  return e;
}

const Network::LinkEntry* Network::find_entry(std::uint64_t k) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = bucket_of(k, mask);
  while (index_[slot] != kNoEntry) {
    const LinkEntry& e = entries_[index_[slot]];
    if (e.key == k) return &e;
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

HostTraffic& Network::traffic_slot(HostId h) {
  const auto i = static_cast<std::size_t>(h.value());
  if (i >= traffic_.size()) traffic_.resize(i + 1);
  return traffic_[i];
}

LinkParams& Network::link(HostId a, HostId b) { return entry(key(a, b)).params; }

const LinkParams& Network::link(HostId a, HostId b) const {
  const LinkEntry* e = find_entry(key(a, b));
  return e == nullptr ? default_link_ : e->params;
}

void Network::set_partitioned(HostId a, HostId b, bool partitioned) {
  link(a, b).partitioned = partitioned;
}

LinkStats Network::link_stats(HostId a, HostId b) const {
  const LinkEntry* e = find_entry(key(a, b));
  return e == nullptr ? LinkStats{} : e->stats;
}

const HostTraffic& Network::traffic(HostId h) const {
  static const HostTraffic kZero{};
  const auto i = static_cast<std::size_t>(h.value());
  return i < traffic_.size() ? traffic_[i] : kZero;
}

void Network::send(Message message) {
  Host& sender = sim_.host(message.from);
  if (!sender.alive()) return;  // a crashed host is fail-silent

  message.size_bytes = message.payload.encoded_size() + kHeaderBytes;
  // One probe fetches params, stats and the transmitter-free times.
  LinkEntry& e = entry(key(message.from, message.to));
  const LinkParams& params = e.params;
  LinkStats& stats = e.stats;

  // Sender-side accounting happens even for dropped messages: the bytes were
  // put on the wire.
  stats.messages += 1;
  stats.bytes += message.size_bytes;
  total_bytes_ += message.size_bytes;
  HostTraffic& sender_traffic = traffic_slot(message.from);
  sender_traffic.bytes_sent += message.size_bytes;
  sender_traffic.messages_sent += 1;
  sender.meter().charge_sent(message.size_bytes);

  if (params.partitioned) {
    stats.dropped += 1;
    log().trace("net", "drop (partitioned) ", message.type, " ", message.from,
                "->", message.to);
    return;
  }
  if (params.drop_rate > 0.0 && sim_.rng().bernoulli(params.drop_rate)) {
    stats.dropped += 1;
    log().trace("net", "drop (loss) ", message.type, " ", message.from, "->",
                message.to);
    return;
  }

  Duration delay = 0;
  Duration duplicate_delay = -1;  // extra delay of the duplicate copy, if any
  if (message.from != message.to) {
    const double transfer_us =
        static_cast<double>(message.size_bytes) / params.bandwidth_bps * kSecond;
    double jitter_factor = 1.0;
    if (params.jitter > 0.0) {
      jitter_factor = 1.0 + params.jitter * sim_.rng().uniform(-1.0, 1.0);
      // A jitter fraction above 1.0 must null the transfer at worst, never
      // produce a negative delay (which would corrupt the transmitter
      // backlog and throw mid-run when the delivery is scheduled).
      if (jitter_factor < 0.0) jitter_factor = 0.0;
    }
    const auto transfer = static_cast<Duration>(transfer_us * jitter_factor);

    // Transmission is serialized per directed link: a frame sent while the
    // transmitter is busy queues behind the earlier ones. Propagation
    // (latency) still overlaps.
    const Time now = sim_.now();
    Time& tx_free = e.tx_free[direction(message.from, message.to)];
    const Time start = std::max(now, tx_free);
    const Duration queueing = start - now;
    tx_free = start + transfer;
    stats.queueing += queueing;
    delay = queueing + transfer + params.latency;

    // Reordering: hold this message back so later sends can overtake it.
    if (params.reorder_rate > 0.0 && params.reorder_window > 0 &&
        sim_.rng().bernoulli(params.reorder_rate)) {
      delay += static_cast<Duration>(sim_.rng().uniform(
          0.0, static_cast<double>(params.reorder_window)));
      stats.reordered += 1;
      log().trace("net", "reorder ", message.type, " ", message.from, "->",
                  message.to);
    }
    // Duplication: a second copy of the frame arrives with its own delay.
    if (params.duplicate_rate > 0.0 &&
        sim_.rng().bernoulli(params.duplicate_rate)) {
      duplicate_delay = delay + static_cast<Duration>(sim_.rng().uniform(
                                    0.0, static_cast<double>(std::max<Duration>(
                                             params.reorder_window, 1))));
      stats.duplicated += 1;
      log().trace("net", "duplicate ", message.type, " ", message.from, "->",
                  message.to);
    }
  }

  const Time base = sim_.now();
  if (duplicate_delay >= 0) {
    // The duplicate shares the payload with the original: copying a Message
    // is two ids, a type id and a refcount bump.
    schedule_delivery(base + duplicate_delay, message, /*duplicate=*/true);
  }
  schedule_delivery(base + delay, std::move(message), /*duplicate=*/false);
}

void Network::schedule_delivery(Time at, Message message, bool duplicate) {
  auto deliver = [this, message = std::move(message)] { deliver_copy(message); };
  static_assert(EventLoop::Action::kFitsInline<decltype(deliver)>,
                "network delivery closure must not allocate");
  sim_.loop().schedule_at(
      at, std::move(deliver), duplicate ? "net.deliver.dup" : "net.deliver");
}

void Network::deliver_copy(const Message& message) {
  Host& receiver = sim_.host(message.to);
  if (!receiver.alive()) return;
  HostTraffic& recv_traffic = traffic_slot(message.to);
  recv_traffic.bytes_received += message.size_bytes;
  recv_traffic.messages_received += 1;
  receiver.meter().charge_received(message.size_bytes);
  receiver.deliver(message);
}

void Network::reset_stats() {
  for (LinkEntry& e : entries_) e.stats = LinkStats{};
  traffic_.assign(traffic_.size(), HostTraffic{});
  total_bytes_ = 0;
}

}  // namespace rcs::sim
