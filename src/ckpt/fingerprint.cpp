#include "ckpt/fingerprint.hpp"

namespace manet::ckpt {

std::vector<std::string> diffFingerprints(const WorldFingerprint& a,
                                          const WorldFingerprint& b) {
  std::vector<std::string> out;
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
