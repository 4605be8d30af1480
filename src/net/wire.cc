#include "net/wire.h"

#include <cstring>

namespace viewmat::net {

namespace {

template <typename T>
void Put(std::vector<uint8_t>* out, T v) {
  const size_t off = out->size();
  out->resize(off + sizeof(T));
  std::memcpy(out->data() + off, &v, sizeof(T));
}

template <typename T>
bool Get(const uint8_t* data, size_t len, size_t* off, T* out) {
  if (*off + sizeof(T) > len) return false;
  std::memcpy(out, data + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

}  // namespace

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kRejected: return "rejected";
  }
  return "?";
}

std::vector<uint8_t> Message::Encode() const {
  std::vector<uint8_t> out;
  Put<uint8_t>(&out, static_cast<uint8_t>(type));
  Put<uint64_t>(&out, session_id);
  Put<uint64_t>(&out, seq_no);
  Put<uint32_t>(&out, attempt);
  Put<uint32_t>(&out, static_cast<uint32_t>(victims.size()));
  for (const auto& [key, delta] : victims) {
    Put<int64_t>(&out, key);
    Put<double>(&out, delta);
  }
  Put<int64_t>(&out, lo);
  Put<int64_t>(&out, hi);
  Put<uint8_t>(&out, static_cast<uint8_t>(wstatus));
  Put<uint64_t>(&out, txn_id);
  Put<uint64_t>(&out, answer_digest);
  Put<uint64_t>(&out, journal_len);
  Put<uint8_t>(&out, degraded ? 1 : 0);
  return out;
}

StatusOr<Message> Message::Decode(const uint8_t* data, size_t len) {
  Message msg;
  size_t off = 0;
  uint8_t type = 0, wstatus = 0, degraded = 0;
  uint32_t nvictims = 0;
  if (!Get(data, len, &off, &type) || !Get(data, len, &off, &msg.session_id) ||
      !Get(data, len, &off, &msg.seq_no) ||
      !Get(data, len, &off, &msg.attempt) ||
      !Get(data, len, &off, &nvictims)) {
    return Status::InvalidArgument("wire message truncated in header");
  }
  if (type < static_cast<uint8_t>(MsgType::kOpenSession) ||
      type > static_cast<uint8_t>(MsgType::kRefreshAck)) {
    return Status::InvalidArgument("wire message has unknown type " +
                                   std::to_string(type));
  }
  msg.type = static_cast<MsgType>(type);
  // Each victim takes 16 bytes: a count the remaining bytes cannot hold is
  // corrupt, and reserving it could ask for gigabytes.
  if (nvictims > (len - off) / 16) {
    return Status::InvalidArgument("wire message truncated in victim list");
  }
  msg.victims.reserve(nvictims);
  for (uint32_t i = 0; i < nvictims; ++i) {
    int64_t key = 0;
    double delta = 0;
    if (!Get(data, len, &off, &key) || !Get(data, len, &off, &delta)) {
      return Status::InvalidArgument("wire message truncated in victim list");
    }
    msg.victims.emplace_back(key, delta);
  }
  if (!Get(data, len, &off, &msg.lo) || !Get(data, len, &off, &msg.hi) ||
      !Get(data, len, &off, &wstatus) || !Get(data, len, &off, &msg.txn_id) ||
      !Get(data, len, &off, &msg.answer_digest) ||
      !Get(data, len, &off, &msg.journal_len) ||
      !Get(data, len, &off, &degraded)) {
    return Status::InvalidArgument("wire message truncated in trailer");
  }
  if (wstatus < static_cast<uint8_t>(WireStatus::kOk) ||
      wstatus > static_cast<uint8_t>(WireStatus::kRejected)) {
    return Status::InvalidArgument("wire message has unknown status " +
                                   std::to_string(wstatus));
  }
  msg.wstatus = static_cast<WireStatus>(wstatus);
  msg.degraded = degraded != 0;
  if (off != len) {
    return Status::InvalidArgument("wire message has trailing bytes");
  }
  return msg;
}

}  // namespace viewmat::net
