#include "rcs/ftm/reply_log.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

comp::ComponentTypeInfo ReplyLogComponent::type_info() {
  comp::ComponentTypeInfo info;
  info.type_name = kernel::kReplyLog;
  info.description = "at-most-once reply log (common part)";
  info.category = comp::TypeCategory::kKernel;
  info.services = {{"log", iface::kReplyLog}};
  info.default_properties.set("capacity",
                              static_cast<std::int64_t>(kDefaultCapacity));
  info.code_size = 24'000;
  info.source_file = "src/ftm/reply_log.cpp";
  info.factory = [] { return std::make_unique<ReplyLogComponent>(); };
  return info;
}

std::size_t ReplyLogComponent::capacity() const {
  const Value v = property("capacity");
  return v.is_int() && v.as_int() > 0 ? static_cast<std::size_t>(v.as_int())
                                      : kDefaultCapacity;
}

void ReplyLogComponent::evict_to_capacity() {
  const std::size_t cap = capacity();
  while (order_.size() > cap) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

void ReplyLogComponent::record(const std::string& key, const Value& reply,
                               const char* state) {
  if (host() != nullptr && host()->sim().fsim().enabled()) {
    // fsim "replylog.append": storage pressure on the at-most-once log. The
    // append itself must never be lost (a dropped entry re-executes a
    // retransmitted request), so the log sheds its oldest entry and the
    // append proceeds — the same policy FIFO eviction already encodes,
    // triggered early.
    fsim::Registry& fsim = host()->sim().fsim();
    const fsim::Site site{state, reply.encoded_size(),
                          static_cast<std::int64_t>(host()->sim().now())};
    if (fsim.should_fail(fsim::Point::kReplylogAppend, site) &&
        !order_.empty()) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
  }
  if (!entries_.contains(key)) order_.push_back(key);
  entries_[key] = Entry{reply, ++record_seq_};
  evict_to_capacity();
}

const Value* ReplyLogComponent::lookup(const std::string& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() ? &it->second.reply : nullptr;
}

Value ReplyLogComponent::export_all() const {
  Value entries = Value::map();
  for (const auto& [key, entry] : entries_) entries.set(key, entry.reply);
  Value order = Value::list();
  for (const auto& key : order_) order.push_back(key);
  Value out = Value::map();
  out.set("entries", entries)
      .set("order", order)
      .set("upto", static_cast<std::int64_t>(record_seq_));
  return out;
}

void ReplyLogComponent::import_all(const Value& snapshot) {
  entries_.clear();
  order_.clear();
  const auto& entries = snapshot.at("entries").as_map();
  for (const auto& key_value : snapshot.at("order").as_list()) {
    const auto& key = key_value.as_string();
    const auto it = entries.find(key);
    if (it == entries.end()) {
      throw FtmError(strf("replyLog import: order key '", key,
                          "' missing from entries"));
    }
    entries_[key] = Entry{it->second, ++record_seq_};
    order_.push_back(key);
  }
  evict_to_capacity();
  // A full import realigns the incremental watermark with the exporter.
  import_mark_ =
      static_cast<std::uint64_t>(snapshot.get_or("upto", Value(0)).as_int());
}

Value ReplyLogComponent::export_since() const {
  // Only entries recorded after the peer's last acknowledgement travel;
  // "from" lets the importer detect that it missed an earlier delta.
  Value entries = Value::map();
  Value order = Value::list();
  for (const auto& key : order_) {
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second.seq > export_acked_) {
      entries.set(key, it->second.reply);
      order.push_back(key);
    }
  }
  Value out = Value::map();
  out.set("entries", std::move(entries))
      .set("order", std::move(order))
      .set("from", static_cast<std::int64_t>(export_acked_))
      .set("upto", static_cast<std::int64_t>(record_seq_));
  return out;
}

void ReplyLogComponent::ack_export(std::uint64_t upto) {
  if (upto > export_acked_) export_acked_ = upto;
}

bool ReplyLogComponent::import_delta(const Value& delta) {
  const auto from = static_cast<std::uint64_t>(delta.at("from").as_int());
  const auto upto = static_cast<std::uint64_t>(delta.at("upto").as_int());
  if (from > import_mark_) {
    // The exporter believes we acked entries we never saw: a delta between
    // its "from" and our mark is missing. Refuse; caller resyncs in full.
    return false;
  }
  for (const auto& key_value : delta.at("order").as_list()) {
    const auto& key = key_value.as_string();
    record(key, delta.at("entries").at(key), "import_delta");
  }
  if (upto > import_mark_) import_mark_ = upto;
  return true;
}

Value ReplyLogComponent::on_invoke(const std::string& /*service*/,
                                   const std::string& op, const Value& args) {
  if (op == "lookup") {
    const Value* reply = lookup(args.at("key").as_string());
    Value out = Value::map();
    out.set("found", reply != nullptr);
    if (reply != nullptr) out.set("reply", *reply);
    return out;
  }
  if (op == "record") {
    record(args.at("key").as_string(), args.at("reply"));
    return {};
  }
  if (op == "export") return export_all();
  if (op == "import") {
    import_all(args);
    return {};
  }
  if (op == "size") return Value(static_cast<std::int64_t>(entries_.size()));
  if (op == "clear") {
    entries_.clear();
    order_.clear();
    return {};
  }
  throw FtmError(strf("replyLog: unknown op '", op, "'"));
}

}  // namespace rcs::ftm
