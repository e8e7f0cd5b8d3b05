#include "ckpt/fingerprint.hpp"

#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"

namespace manet::ckpt {

std::vector<std::uint8_t> encodeFingerprint(const WorldFingerprint& fp) {
  Writer w;
  for (std::size_t i = 0; i < kMagicLen; ++i) {
    w.u8(static_cast<std::uint8_t>(kMagic[i]));
  }
  w.u32(kFormatVersion);
  w.u64(fp.configBlob.size());
  for (std::uint8_t b : fp.configBlob) w.u8(b);
  w.time(fp.anchor);
  w.time(fp.horizon);
  w.boolean(fp.hasRegistry);
  for (std::uint64_t word : fp.words) w.u64(word);
  w.u64(fp.hosts.size());
  for (const HostFingerprint& h : fp.hosts) {
    for (std::uint64_t word : h.words) w.u64(word);
  }
  w.u64(fnv1a(w.bytes().data(), w.bytes().size()));
  return w.take();
}

WorldFingerprint decodeFingerprint(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kMagicLen + 4 + 8) {
    throw Error("checkpoint too short to hold header and checksum (" +
                std::to_string(bytes.size()) + " bytes)");
  }
  Reader r(bytes.data(), bytes.size() - 8);
  for (std::size_t i = 0; i < kMagicLen; ++i) {
    if (r.u8() != static_cast<std::uint8_t>(kMagic[i])) {
      throw Error("bad magic: not a .mckpt checkpoint");
    }
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw Error("checkpoint format version " + std::to_string(version) +
                " does not match expected " + std::to_string(kFormatVersion) +
                "; refusing to guess at the layout");
  }
  const std::uint64_t want = Reader(bytes.data() + bytes.size() - 8, 8).u64();
  if (fnv1a(bytes.data(), bytes.size() - 8) != want) {
    throw Error("checkpoint checksum mismatch (corrupt or truncated file)");
  }

  WorldFingerprint fp;
  const std::uint64_t configBytes = r.u64();
  if (configBytes > r.remaining()) {
    throw Error("implausible config blob length " +
                std::to_string(configBytes));
  }
  fp.configBlob.resize(static_cast<std::size_t>(configBytes));
  for (std::uint8_t& b : fp.configBlob) b = r.u8();
  fp.anchor = r.time();
  fp.horizon = r.time();
  fp.hasRegistry = r.boolean();
  for (std::uint64_t& word : fp.words) word = r.u64();
  const std::uint64_t hosts = r.u64();
  constexpr std::size_t kHostBytes = 8 * HostFingerprint::kParts;
  if (hosts != r.remaining() / kHostBytes ||
      r.remaining() % kHostBytes != 0) {
    throw Error("checkpoint host count " + std::to_string(hosts) +
                " does not match its length");
  }
  fp.hosts.resize(static_cast<std::size_t>(hosts));
  for (HostFingerprint& h : fp.hosts) {
    for (std::uint64_t& word : h.words) word = r.u64();
  }
  return fp;
}

std::vector<std::string> diffFingerprints(const WorldFingerprint& a,
                                          const WorldFingerprint& b) {
  std::vector<std::string> out;
  if (a.configBlob != b.configBlob) out.push_back("configBlob differs");
  if (a.anchor != b.anchor) {
    out.push_back("anchor: " + std::to_string(a.anchor.ticks()) + " vs " +
                  std::to_string(b.anchor.ticks()) + " us");
  }
  if (a.horizon != b.horizon) out.push_back("horizon differs");
  if (a.hasRegistry != b.hasRegistry) out.push_back("hasRegistry differs");
  for (std::size_t i = 0; i < WorldFingerprint::kParts; ++i) {
    if (a.words[i] != b.words[i]) {
      out.push_back(std::string(WorldFingerprint::kNames[i]) + " differs");
    }
  }
  if (a.hosts.size() != b.hosts.size()) {
    out.push_back("host count: " + std::to_string(a.hosts.size()) + " vs " +
                  std::to_string(b.hosts.size()));
    return out;
  }
  for (std::size_t h = 0; h < a.hosts.size(); ++h) {
    if (a.hosts[h] == b.hosts[h]) continue;
    std::string what = "host " + std::to_string(h) + ":";
    for (std::size_t i = 0; i < HostFingerprint::kParts; ++i) {
      if (a.hosts[h].words[i] != b.hosts[h].words[i]) {
        what += ' ';
        what += HostFingerprint::kNames[i];
      }
    }
    out.push_back(what + " differ(s)");
    if (out.size() >= 32) {
      out.push_back("... further host diffs suppressed");
      break;
    }
  }
  return out;
}

}  // namespace manet::ckpt
