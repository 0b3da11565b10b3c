// Copyright 2026 The SONG-Repro Authors.
//
// The one flag parser of the command-line tools (song_cli, song_server,
// song_loadgen): `--name value` pairs (a bare `--name` reads as "1") and
// strict value parsers. Every malformed flag is a usage error — a
// diagnostic on stderr and exit code 2 — never a silent fallback to a
// default, because a typo'd flag quietly running the default is how bad
// benchmarks get published.
//
// Header-only: each tool is a single translation unit over the library, so
// a tool builds from its own .cc file plus src/.

#ifndef SONG_TOOLS_FLAGS_H_
#define SONG_TOOLS_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>

#include "core/distance.h"
#include "song/search_options.h"

namespace song::cli {

using Flags = std::map<std::string, std::string>;

/// Parses argv[first..argc) into flags; a positional argument exits 2.
inline Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";
    }
  }
  return flags;
}

/// Rejects any flag not in `allowed` ("unknown flag --X", plus "for
/// command C" when `command` is given).
inline void CheckFlags(const Flags& flags,
                       std::initializer_list<const char*> allowed,
                       const char* command = nullptr) {
  for (const auto& [key, value] : flags) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s", key.c_str());
      if (command != nullptr) std::fprintf(stderr, " for command %s", command);
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
}

inline std::string Require(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

inline std::string Optional(const Flags& flags, const std::string& key,
                            const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Strict non-negative integer no larger than `max`; a sign, trailing junk
/// or an out-of-range value is a usage error, not a silent zero.
inline uint64_t ParseUint(
    const Flags& flags, const std::string& key, const std::string& fallback,
    uint64_t max = std::numeric_limits<uint64_t>::max()) {
  const std::string value = Optional(flags, key, fallback);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || end == value.c_str() ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "flag --%s expects a non-negative integer, got \"%s\"\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  if (v > max) {
    std::fprintf(stderr, "flag --%s must be <= %llu, got \"%s\"\n",
                 key.c_str(), static_cast<unsigned long long>(max),
                 value.c_str());
    std::exit(2);
  }
  return v;
}

/// Strict finite real number; trailing junk, NaN or Inf is a usage error.
inline double ParseDouble(const Flags& flags, const std::string& key,
                          const std::string& fallback) {
  const std::string value = Optional(flags, key, fallback);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE || !std::isfinite(v)) {
    std::fprintf(stderr, "flag --%s expects a number, got \"%s\"\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  return v;
}

inline Metric ParseMetric(const std::string& name) {
  if (name == "l2") return Metric::kL2;
  if (name == "ip") return Metric::kInnerProduct;
  if (name == "cosine") return Metric::kCosine;
  std::fprintf(stderr, "unknown metric: %s\n", name.c_str());
  std::exit(2);
}

inline SongSearchOptions ParseConfig(const std::string& name) {
  if (name == "hashtable") return SongSearchOptions::HashTable();
  if (name == "sel") return SongSearchOptions::HashTableSel();
  if (name == "seldel") return SongSearchOptions::HashTableSelDel();
  if (name == "bloom") return SongSearchOptions::Bloom();
  if (name == "cuckoo") return SongSearchOptions::Cuckoo();
  std::fprintf(stderr, "unknown config: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace song::cli

#endif  // SONG_TOOLS_FLAGS_H_
