#include "fti/cache/so_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "fti/obs/metrics.hpp"
#include "fti/util/error.hpp"

namespace fti::cache {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultMaxBytes = 256ull << 20;

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_inserts{0};
std::atomic<std::uint64_t> g_evictions{0};
std::atomic<std::uint64_t> g_scratch_counter{0};

std::string default_dir() {
  if (const char* env = std::getenv("FTI_COMPILED_CACHE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) {
    tmp = "/tmp";
  }
  return (tmp / "fti-compiled-cache").string();
}

std::uint64_t default_max_bytes() {
  if (const char* env = std::getenv("FTI_COMPILED_CACHE_BYTES");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      return parsed;
    }
  }
  return kDefaultMaxBytes;
}

}  // namespace

SoStoreStats so_store_stats() {
  SoStoreStats stats;
  stats.hits = g_hits.load(std::memory_order_relaxed);
  stats.misses = g_misses.load(std::memory_order_relaxed);
  stats.inserts = g_inserts.load(std::memory_order_relaxed);
  stats.evictions = g_evictions.load(std::memory_order_relaxed);
  return stats;
}

SoStore::SoStore(std::string dir, std::uint64_t max_bytes)
    : dir_(dir.empty() ? default_dir() : std::move(dir)),
      max_bytes_(max_bytes == 0 ? default_max_bytes() : max_bytes) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw util::IoError("so-store: cannot create cache dir '" + dir_ +
                        "': " + ec.message());
  }
}

std::string SoStore::path_for(const Key& key) const {
  return (fs::path(dir_) / (key.to_string() + ".so")).string();
}

std::string SoStore::lookup(const Key& key) {
  std::string path = path_for(key);
  std::error_code ec;
  if (!fs::is_regular_file(path, ec) || ec) {
    g_misses.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      obs::counter("cache.so_disk_misses").inc();
    }
    return "";
  }
  // LRU touch: a concurrent eviction racing the touch loses nothing but
  // this one hit, so filesystem errors here are ignored.
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  g_hits.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::counter("cache.so_disk_hits").inc();
  }
  return path;
}

std::string SoStore::scratch_path(const Key& key, const char* suffix) const {
  std::uint64_t n = g_scratch_counter.fetch_add(1, std::memory_order_relaxed);
  return (fs::path(dir_) /
          (key.to_string() + "." + std::to_string(::getpid()) + "." +
           std::to_string(n) + suffix))
      .string();
}

std::string SoStore::insert(const Key& key, const std::string& scratch) {
  std::string path = path_for(key);
  std::error_code ec;
  fs::rename(scratch, path, ec);
  if (ec) {
    throw util::IoError("so-store: publish rename '" + scratch + "' -> '" +
                        path + "': " + ec.message());
  }
  g_inserts.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::counter("cache.so_inserts").inc();
  }
  trim(path);
  return path;
}

void SoStore::remove(const Key& key) {
  std::error_code ec;
  fs::remove(path_for(key), ec);
}

void SoStore::trim(const std::string& keep) {
  struct Object {
    fs::path path;
    std::uint64_t size;
    fs::file_time_type mtime;
  };
  std::vector<Object> objects;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() != ".so") {
      continue;
    }
    std::error_code entry_ec;
    std::uint64_t size = entry.file_size(entry_ec);
    if (entry_ec) {
      continue;  // deleted by a concurrent trim
    }
    fs::file_time_type mtime = entry.last_write_time(entry_ec);
    if (entry_ec) {
      continue;
    }
    objects.push_back({entry.path(), size, mtime});
    total += size;
  }
  if (total <= max_bytes_) {
    return;
  }
  std::sort(objects.begin(), objects.end(),
            [](const Object& a, const Object& b) { return a.mtime < b.mtime; });
  for (const Object& object : objects) {
    if (total <= max_bytes_) {
      break;
    }
    if (object.path.string() == keep) {
      continue;  // never evict the object just published
    }
    std::error_code remove_ec;
    if (fs::remove(object.path, remove_ec) && !remove_ec) {
      total -= object.size;
      g_evictions.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::counter("cache.so_evictions").inc();
      }
    }
  }
}

}  // namespace fti::cache
