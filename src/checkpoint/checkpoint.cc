#include "src/checkpoint/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace rtvirt {
namespace ckpt {

namespace {

const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const uint32_t* table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string Image::Serialize() const {
  Writer payload;
  payload.U32(static_cast<uint32_t>(sections.size()));
  for (const Section& s : sections) {
    payload.Str(s.name);
    payload.U64(s.bytes.size());
    payload.Str(s.bytes);  // Redundant u32 length inside, cheap and uniform.
  }
  const std::string& body = payload.data();
  Writer out;
  for (char c : kMagic) {
    out.U8(static_cast<uint8_t>(c));
  }
  out.U32(kVersion);
  out.U32(Crc32(body));
  out.U64(body.size());
  std::string result = out.Take();
  result += body;
  return result;
}

std::string Image::Parse(std::string_view bytes, Image* out) {
  constexpr size_t kHeader = sizeof(kMagic) + 4 + 4 + 8;
  if (bytes.size() < kHeader) {
    return "checkpoint: truncated header (" + std::to_string(bytes.size()) +
           " bytes, need " + std::to_string(kHeader) + ")";
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return "checkpoint: bad magic (not an RTVCKPT file)";
  }
  Reader hdr(bytes.substr(sizeof(kMagic)));
  uint32_t version = hdr.U32();
  uint32_t crc = hdr.U32();
  uint64_t payload_size = hdr.U64();
  if (version != kVersion) {
    return "checkpoint: unknown schema version " + std::to_string(version) +
           " (supported: " + std::to_string(kVersion) + ")";
  }
  std::string_view payload = bytes.substr(kHeader);
  if (payload.size() != payload_size) {
    return "checkpoint: truncated payload (" + std::to_string(payload.size()) +
           " bytes, header claims " + std::to_string(payload_size) + ")";
  }
  uint32_t actual_crc = Crc32(payload);
  if (actual_crc != crc) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "checkpoint: CRC mismatch (stored %08x, computed %08x)", crc,
                  actual_crc);
    return buf;
  }
  Reader r(payload);
  uint32_t count = r.U32();
  // Reserve no more than the payload can hold: a section record is at least
  // its name length, declared size and byte length. A larger count fails as
  // a truncated section in the loop below.
  constexpr size_t kMinSectionBytes = 4 + 8 + 4;
  Image img;
  img.sections.reserve(std::min<size_t>(count, r.remaining() / kMinSectionBytes));
  for (uint32_t i = 0; i < count; ++i) {
    Section s;
    s.name = r.Str();
    uint64_t declared = r.U64();
    s.bytes = r.Str();
    if (!r.ok()) {
      return "checkpoint: truncated section[" + std::to_string(i) + "]" +
             (s.name.empty() ? "" : " '" + s.name + "'");
    }
    if (s.bytes.size() != declared) {
      return "checkpoint: section[" + std::to_string(i) + "] '" + s.name +
             "' size mismatch (declared " + std::to_string(declared) +
             ", got " + std::to_string(s.bytes.size()) + ")";
    }
    img.sections.push_back(std::move(s));
  }
  if (!r.AtEnd()) {
    return "checkpoint: trailing bytes after section[" +
           std::to_string(count == 0 ? 0 : count - 1) + "]";
  }
  *out = std::move(img);
  return "";
}

const Section* Image::Find(std::string_view name) const {
  for (const Section& s : sections) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

StateDigest DigestOf(const Image& image) {
  StateDigest d;
  uint64_t combined = kFnvOffset;
  for (const Section& s : image.sections) {
    uint64_t h = Fnv1a64(s.bytes);
    d.sections.push_back({s.name, h});
    combined = Fnv1a64(s.name, combined);
    combined = Fnv1a64(&h, sizeof(h), combined);
  }
  d.combined = combined;
  return d;
}

std::string StateDigest::ToLine(int interval, TimeNs t) const {
  std::string line = "digest interval=" + std::to_string(interval) +
                     " t=" + std::to_string(t) + " combined=" + Hex(combined);
  for (const DigestEntry& e : sections) {
    line += " " + e.name + "=" + Hex(e.digest);
  }
  return line;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  out->clear();
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::string WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return "checkpoint: cannot open '" + tmp + "' for writing";
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size() && std::fflush(f) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return "checkpoint: short write to '" + tmp + "'";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return "checkpoint: rename to '" + path + "' failed";
  }
  return "";
}

}  // namespace ckpt
}  // namespace rtvirt
