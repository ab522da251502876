// Versioned, CRC-guarded checkpoint container + per-component serialization
// interface (DESIGN.md §10).
//
// A checkpoint is an Image: an ordered list of named sections, one per
// registered component plus the Experiment-owned "sim" / "rng" / "events"
// sections. A pending event is plain data — (target, kind, payload) — so the
// "events" section stores each one as (owner, kind, payload, time), where
// owner = Fnv1a64(section name of its target), and restore hands (kind,
// payload, time) back to the owning component, which re-arms it through its
// ordinary schedule path. The header stays header-only (Writer / Reader /
// field lists / hashes) so hypervisor and guest components can implement
// Checkpointable without new link-time dependencies.

#ifndef SRC_CHECKPOINT_CHECKPOINT_H_
#define SRC_CHECKPOINT_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"

namespace rtvirt {
namespace ckpt {

// ---------------------------------------------------------------------------
// Hashes.

// FNV-1a 64-bit: the incremental state digest used by the divergence auditor.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t Fnv1a64(const void* data, size_t n, uint64_t h = kFnvOffset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s, uint64_t h = kFnvOffset) {
  return Fnv1a64(s.data(), s.size(), h);
}

// CRC-32 (reflected, poly 0xEDB88320) guarding the serialized payload.
uint32_t Crc32(const void* data, size_t n);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

// ---------------------------------------------------------------------------
// Little-endian append buffer / sticky-error reader.

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Typed getters return zero values once the buffer under-runs; callers check
// ok() after a batch of reads instead of after every field. The error is
// sticky so partial state can never be mistaken for a complete section.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  bool Bool() { return U8() != 0; }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
    }
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return std::string();
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  // Bytes not yet read; a count read from the buffer can promise at most
  // remaining() / (record size) records, whatever it says.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Field lists.
//
// Field(io, x) writes x through a Writer or assigns it from a Reader; x's
// type fixes the encoding: int U32, int64_t/TimeNs I64, uint64_t U64, bool
// Bool, double F64, Bandwidth I64 of its ppb, uint8_t U8, uint32_t U32. Any
// other type is a compile error rather than a silent conversion. A record
// declares its plain fields once, in byte order, as one Fields(io, ...) call
// that SaveState (const record, Writer) and RestoreState (Reader) both run.

inline void Field(Writer& w, int v) { w.U32(static_cast<uint32_t>(v)); }
inline void Field(Reader& r, int& v) { v = static_cast<int>(r.U32()); }
inline void Field(Writer& w, int64_t v) { w.I64(v); }
inline void Field(Reader& r, int64_t& v) { v = r.I64(); }
inline void Field(Writer& w, uint64_t v) { w.U64(v); }
inline void Field(Reader& r, uint64_t& v) { v = r.U64(); }
inline void Field(Writer& w, bool v) { w.Bool(v); }
inline void Field(Reader& r, bool& v) { v = r.Bool(); }
inline void Field(Writer& w, double v) { w.F64(v); }
inline void Field(Reader& r, double& v) { v = r.F64(); }
inline void Field(Writer& w, Bandwidth v) { w.I64(v.ppb()); }
inline void Field(Reader& r, Bandwidth& v) { v = Bandwidth::FromPpb(r.I64()); }
inline void Field(Writer& w, uint8_t v) { w.U8(v); }
inline void Field(Reader& r, uint8_t& v) { v = r.U8(); }
inline void Field(Writer& w, uint32_t v) { w.U32(v); }
inline void Field(Reader& r, uint32_t& v) { v = r.U32(); }
template <typename T>
void Field(Writer&, const T&) = delete;
template <typename T>
void Field(Reader&, T&) = delete;

// A field stored in another type's encoding, such as an enum as U8 or U32:
// Fields(io, As<uint8_t>(state)).
template <typename Wire, typename T>
struct Encoded {
  T& field;
};
template <typename Wire, typename T>
Encoded<Wire, T> As(T& field) {
  return {field};
}
template <typename Wire, typename T>
void Field(Writer& w, Encoded<Wire, T> e) {
  Field(w, static_cast<Wire>(e.field));
}
template <typename Wire, typename T>
void Field(Reader& r, Encoded<Wire, T> e) {
  Wire v{};
  Field(r, v);
  e.field = static_cast<T>(v);
}

// Forwarding keeps a restore from reading into a temporary: a Reader
// binds only lvalues (and As<> views).
template <typename Io, typename... T>
void Fields(Io& io, T&&... fields) {
  (Field(io, std::forward<T>(fields)), ...);
}

// ---------------------------------------------------------------------------
// Component interface.

// One per stateful component; it is also the target of every event it
// schedules. SaveState/RestoreState move the component's fields;
// RestoreEvent checks one saved live event's (kind, payload) and re-arms it
// at virtual time `when` through the component's schedule path. Restore
// hooks return an empty string on success or a loud error naming what went
// wrong. A failing hook may already have stored part of its state (a field
// list stores as it reads, and the checks run after it), so the owner never
// uses a component whose restore failed: Experiment::RestoreCheckpoint and
// Federation::RestoreCheckpoint mark themselves unusable instead.
class Checkpointable : public EventTarget {
 public:
  virtual ~Checkpointable() = default;
  virtual void SaveState(Writer& w) const = 0;
  virtual std::string RestoreState(Reader& r) = 0;
  virtual std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) = 0;
};

// ---------------------------------------------------------------------------
// Container format.
//
//   magic "RTVCKPT1" | u32 version | u32 crc32(payload) | u64 payload_size |
//   payload = u32 section_count, then per section: str name, u64 size, bytes
//
// Parse verifies magic, version, size, and CRC before exposing any section,
// and every failure names the offending part (never a silent partial parse).

constexpr char kMagic[8] = {'R', 'T', 'V', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kVersion = 4;

struct Section {
  std::string name;
  std::string bytes;
};

struct Image {
  std::vector<Section> sections;

  std::string Serialize() const;
  // Returns "" on success, else a diagnostic naming the corrupt part.
  static std::string Parse(std::string_view bytes, Image* out);
  const Section* Find(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Divergence digests.

struct DigestEntry {
  std::string name;
  uint64_t digest = 0;
};

struct StateDigest {
  uint64_t combined = 0;
  std::vector<DigestEntry> sections;

  // "digest interval=I t=T combined=HEX name=HEX ..." — one line per
  // checkpoint boundary; the recorded trail that --replay-verify replays.
  std::string ToLine(int interval, TimeNs t) const;
};

StateDigest DigestOf(const Image& image);

// ---------------------------------------------------------------------------
// File helpers (atomic persist for sweep shards).

bool ReadFileToString(const std::string& path, std::string* out);
// Write to path.tmp then rename; returns "" on success, else an error string.
std::string WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace ckpt
}  // namespace rtvirt

#endif  // SRC_CHECKPOINT_CHECKPOINT_H_
