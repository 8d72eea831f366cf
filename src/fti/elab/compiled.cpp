#include "fti/elab/compiled.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fti/cache/ir_hash.hpp"
#include "fti/cache/so_store.hpp"
#include "fti/codegen/cpp.hpp"
#include "fti/elab/batched.hpp"
#include "fti/elab/compiled_abi.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/ops/clock.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::elab {
namespace {

std::atomic<std::uint64_t> g_compiles{0};
std::atomic<std::uint64_t> g_oneshot_compiles{0};
std::atomic<std::uint64_t> g_hits_memory{0};
std::atomic<std::uint64_t> g_hits_disk{0};
std::atomic<std::uint64_t> g_load_rejects{0};
std::atomic<std::uint64_t> g_fallbacks{0};

bool is_executable(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

/// Resolves `name` against $PATH the way execvp would; "" when absent.
std::string find_in_path(const std::string& name) {
  if (name.find('/') != std::string::npos) {
    return is_executable(name) ? name : "";
  }
  const char* path = std::getenv("PATH");
  if (path == nullptr) {
    return "";
  }
  std::string dirs = path;
  std::size_t start = 0;
  while (start <= dirs.size()) {
    std::size_t end = dirs.find(':', start);
    if (end == std::string::npos) {
      end = dirs.size();
    }
    std::string dir = dirs.substr(start, end - start);
    if (!dir.empty()) {
      std::string candidate = dir + "/" + name;
      if (is_executable(candidate)) {
        return candidate;
      }
    }
    start = end + 1;
  }
  return "";
}

/// Host compiler resolution.  FTI_COMPILED_CXX, when set, is the whole
/// story -- an unusable value disables the backend instead of falling
/// through, so tests (and users pinning a toolchain) get deterministic
/// behaviour.  Otherwise $CXX then the conventional driver names.
std::string probe_compiler(std::string* reason) {
  if (const char* pinned = std::getenv("FTI_COMPILED_CXX");
      pinned != nullptr && *pinned != '\0') {
    std::string resolved = find_in_path(pinned);
    if (resolved.empty() && reason != nullptr) {
      *reason = "FTI_COMPILED_CXX='" + std::string(pinned) +
                "' is not an executable";
    }
    return resolved;
  }
  std::vector<std::string> candidates;
  if (const char* cxx = std::getenv("CXX"); cxx != nullptr && *cxx != '\0') {
    candidates.push_back(cxx);
  }
  candidates.push_back("c++");
  candidates.push_back("g++");
  candidates.push_back("clang++");
  for (const std::string& candidate : candidates) {
    std::string resolved = find_in_path(candidate);
    if (!resolved.empty()) {
      return resolved;
    }
  }
  if (reason != nullptr) {
    *reason = "no host C++ compiler on PATH (tried $CXX, c++, g++, clang++)";
  }
  return "";
}

/// Host compiler flags per tier.  -nostdlib: the generated TU includes
/// no headers and calls no libc, and skipping the C runtime's start
/// files and libraries saves about 20 ms per link.  Unwind tables stay
/// (no -fno-exceptions or -fno-asynchronous-unwind-tables): the host's
/// trace/mem_write callbacks may throw through module frames.
const char* tier_flags(CompiledTier tier) {
  return tier == CompiledTier::kOneShot
             ? "-std=c++17 -O0 -fPIC -shared -pipe -nostdlib"
             : "-std=c++17 -O2 -fPIC -shared -pipe -nostdlib";
}

/// The host compiler's identity, read without running it: the file its
/// path resolves to, with that file's size and mtime, so an upgraded or
/// swapped toolchain keys different objects.
std::string compiler_identity(const std::string& cxx) {
  std::error_code ignored;
  std::string real = std::filesystem::canonical(cxx, ignored).string();
  struct stat info {};
  if (real.empty() || ::stat(real.c_str(), &info) != 0) {
    return cxx;
  }
  return real + " " + std::to_string(info.st_size) + " " +
         std::to_string(info.st_mtime);
}

/// This process's build fingerprint: the emitter's (semantics header,
/// ABI text, emitter revision) and the identity of the first host
/// compiler a compiled run resolves.  Computed once, on that first use,
/// and kept for the life of the process; nullopt before it.
std::mutex g_fingerprint_mutex;
std::optional<cache::Key> g_fingerprint;

std::optional<cache::Key> build_fingerprint(const std::string& cxx) {
  std::lock_guard<std::mutex> lock(g_fingerprint_mutex);
  if (!g_fingerprint && !cxx.empty()) {
    cache::Hasher hasher;
    hasher.mix_string(codegen::emitter_fingerprint());
    hasher.mix_string(compiler_identity(cxx));
    g_fingerprint = hasher.key();
  }
  return g_fingerprint;
}

/// A module's key: its design's IR hash under the build fingerprint and
/// the tier's flags.  It names the store object and is baked into the
/// module, whose loader re-checks it, so an object built by other code
/// or another compiler can only miss.
cache::Key module_key(const cache::Key& ir_key, const cache::Key& fingerprint,
                      CompiledTier tier) {
  cache::Hasher hasher;
  hasher.mix_u64(ir_key.hi);
  hasher.mix_u64(ir_key.lo);
  hasher.mix_u64(fingerprint.hi);
  hasher.mix_u64(fingerprint.lo);
  hasher.mix_string(tier_flags(tier));
  return hasher.key();
}

std::string shell_quoted(const std::string& path) {
  if (path.find('\'') != std::string::npos) {
    throw util::SimError("compiled: path contains a quote: '" + path + "'");
  }
  return "'" + path + "'";
}

/// std::system's wait status in words: "exit status N" or "killed by
/// signal N".
std::string describe_status(int status) {
  if (status == -1) {
    return "could not start the shell";
  }
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "wait status " + std::to_string(status);
}

/// One loaded shared object, unmapped when the last shared_ptr drops.
/// The dlclose matters beyond hygiene: the dynamic loader dedupes
/// dlopen by pathname against the live link map, so a leaked handle
/// would make any later dlopen of the same cache path hand back the
/// stale mapping instead of reading the (possibly replaced) file.
/// In-flight runs keep their module alive through the shared_ptr they
/// acquired, so a registry reset never unmaps code mid-run.
struct Module {
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  ~Module() {
    if (handle != nullptr) {
      ::dlclose(handle);
    }
  }
  void* handle = nullptr;
  const FtiCompiledDesignV1* table = nullptr;
  std::map<std::string, const FtiCompiledNodeV1*> nodes;
};

/// dlopen + ABI/hash verification; nullptr on any mismatch (the caller
/// evicts and recompiles -- a bad cached object can only miss).
std::shared_ptr<Module> try_load(const std::string& path,
                                 const std::string& key_hex) {
  void* handle = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    return nullptr;
  }
  auto entry = reinterpret_cast<cabi::CompiledEntryFn>(
      ::dlsym(handle, cabi::kCompiledEntrySymbol));
  if (entry == nullptr) {
    ::dlclose(handle);
    return nullptr;
  }
  const FtiCompiledDesignV1* table = entry();
  if (table == nullptr || table->abi_version != cabi::kCompiledAbiVersion ||
      table->ir_hash == nullptr || key_hex != table->ir_hash) {
    ::dlclose(handle);
    return nullptr;
  }
  auto module = std::make_shared<Module>();
  module->handle = handle;
  module->table = table;
  for (std::uint64_t i = 0; i < table->node_count; ++i) {
    module->nodes.emplace(table->nodes[i].name, &table->nodes[i]);
  }
  return module;
}

/// Per-design build state: one mutex per IR hash so concurrent engines
/// compile a design at most once per tier, and compile failures are
/// sticky (the second run of a design the emitter cannot handle
/// re-throws instead of re-invoking the compiler, whatever its tier).
struct Slot {
  std::mutex mutex;
  std::shared_ptr<Module> module;
  /// kReused for -O2 builds and store hits; kOneShot for -O0 builds.
  CompiledTier tier = CompiledTier::kReused;
  std::string error;
};

class ModuleRegistry {
 public:
  static ModuleRegistry& instance() {
    static ModuleRegistry registry;
    return registry;
  }

  /// The loaded module for `design`: memory hit, disk hit, or a fresh
  /// emit+compile at `tier`.  A kReused acquire skips a loaded one-shot
  /// module and builds (and publishes) an -O2 one.  nullptr when no host
  /// compiler is usable (caller falls back); throws SimError on compile
  /// failure.  Slots are keyed by IR hash alone: the fingerprint is
  /// fixed for the registry's life.
  std::shared_ptr<Module> acquire(const ir::Design& design,
                                  CompiledTier tier) {
    cache::Key ir_key = cache::hash_design(design);
    std::shared_ptr<Slot> slot = slot_for(ir_key.to_string());
    std::lock_guard<std::mutex> lock(slot->mutex);
    if (slot->module != nullptr &&
        (tier == CompiledTier::kOneShot ||
         slot->tier == CompiledTier::kReused)) {
      g_hits_memory.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::counter("compiled.cache_hits_memory").inc();
      }
      return slot->module;
    }
    if (!slot->error.empty()) {
      throw util::SimError(slot->error);
    }
    std::string cxx = probe_compiler(nullptr);
    std::optional<cache::Key> fingerprint = build_fingerprint(cxx);
    if (!fingerprint) {
      return nullptr;
    }
    // The store holds -O2 builds only, so it is looked up under the
    // kReused key whatever the tier.
    cache::Key stored = module_key(ir_key, *fingerprint, CompiledTier::kReused);
    cache::SoStore store;
    std::string cached = store.lookup(stored);
    if (!cached.empty()) {
      std::shared_ptr<Module> module = try_load(cached, stored.to_string());
      if (module != nullptr) {
        g_hits_disk.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) {
          obs::counter("compiled.cache_hits_disk").inc();
        }
        slot->module = module;
        slot->tier = CompiledTier::kReused;
        return module;
      }
      // Corrupt, stale-ABI or wrong-key object: evict and recompile.
      store.remove(stored);
      g_load_rejects.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        obs::counter("compiled.load_rejects").inc();
      }
    }
    if (cxx.empty()) {
      return nullptr;
    }
    std::shared_ptr<Module> module = build(
        design, module_key(ir_key, *fingerprint, tier), store, cxx, tier, slot);
    slot->module = module;
    slot->tier = tier;
    return module;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
  }

 private:
  std::shared_ptr<Slot> slot_for(const std::string& key_hex) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Slot>& slot = slots_[key_hex];
    if (slot == nullptr) {
      slot = std::make_shared<Slot>();
    }
    return slot;
  }

  std::shared_ptr<Module> build(const ir::Design& design,
                                const cache::Key& key, cache::SoStore& store,
                                const std::string& cxx, CompiledTier tier,
                                const std::shared_ptr<Slot>& slot) {
    bool one_shot = tier == CompiledTier::kOneShot;
    util::Stopwatch watch;
    // Schedules come through acquire_levelized_schedule so the design
    // cache's memo serves compiled and interpreted engines alike, and a
    // combinational cycle fails here with the schedule builder's
    // SimError before any compiler runs.
    std::vector<SharedSchedule> owned;
    std::vector<const LevelizedSchedule*> schedules;
    for (const std::string& node : design.rtg.nodes) {
      owned.push_back(acquire_levelized_schedule(design, node));
      schedules.push_back(owned.back().get());
    }
    codegen::CppModule emitted =
        codegen::emit_cpp(design, key.to_string(), schedules);
    std::string src = store.scratch_path(key, ".cpp");
    std::string obj = store.scratch_path(key, ".so.tmp");
    std::string log = store.scratch_path(key, ".log");
    util::write_file(src, emitted.source);
    std::string command = shell_quoted(cxx) + " " + tier_flags(tier) +
                          " -o " + shell_quoted(obj) + " " +
                          shell_quoted(src) + " 2>" + shell_quoted(log);
    int rc = std::system(command.c_str());
    g_compiles.fetch_add(1, std::memory_order_relaxed);
    if (one_shot) {
      g_oneshot_compiles.fetch_add(1, std::memory_order_relaxed);
    }
    if (obs::enabled()) {
      obs::counter("compiled.compiles").inc();
      if (one_shot) {
        obs::counter("compiled.oneshot_compiles").inc();
      }
      obs::counter("compiled.compile_millis")
          .add(static_cast<std::uint64_t>(watch.milliseconds()));
    }
    std::string stderr_text;
    try {
      stderr_text = util::read_file(log);
    } catch (const util::Error&) {
    }
    std::remove(log.c_str());
    if (rc != 0) {
      std::remove(obj.c_str());
      std::remove(src.c_str());
      slot->error = "compiled: host compiler '" + cxx +
                    "' failed on generated code for design '" + design.name +
                    "' (" + describe_status(rc) + ")" +
                    (stderr_text.empty() ? "" : ":\n" + stderr_text);
      throw util::SimError(slot->error);
    }
    std::remove(src.c_str());
    // A one-shot object is loaded from its scratch name and unlinked at
    // once; the mapping outlives the file, and the name is never reused.
    std::string path = one_shot ? obj : store.insert(key, obj);
    std::shared_ptr<Module> module = try_load(path, key.to_string());
    if (one_shot) {
      std::remove(obj.c_str());
    }
    if (module == nullptr) {
      if (!one_shot) {
        store.remove(key);
      }
      slot->error = "compiled: freshly built module '" + path +
                    "' failed to load or verify";
      throw util::SimError(slot->error);
    }
    return module;
  }

  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
};

/// Host half of the run: trace ring and memory-image targets for the
/// module's callbacks.
struct HostContext {
  std::vector<std::vector<std::uint64_t>*> trace_slots;
  std::vector<mem::MemoryImage*> write_images;
};

void trace_callback(void* host, unsigned long long slot,
                    unsigned long long value) {
  auto* context = static_cast<HostContext*>(host);
  context->trace_slots[slot]->push_back(value);
}

void mem_write_callback(void* host, unsigned long long write_index,
                        unsigned long long addr, unsigned long long value) {
  auto* context = static_cast<HostContext*>(host);
  // In-bounds by construction: the generated code checks against the IR
  // depth, which pool.create guarantees is the image's depth.
  context->write_images[write_index]->write(addr, value);
}

void warn_fallback_once() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    std::string reason;
    probe_compiler(&reason);
    std::fprintf(stderr,
                 "fti: compiled engine unavailable (%s); "
                 "falling back to levelized\n",
                 reason.empty() ? "no usable module" : reason.c_str());
  });
}

}  // namespace

CompiledStatus compiled_status() {
  CompiledStatus status;
  status.compiler = probe_compiler(&status.reason);
  status.available = !status.compiler.empty();
  status.cache_dir = cache::SoStore().dir();
  return status;
}

bool compiled_backend_available() {
  return probe_compiler(nullptr).empty() == false;
}

CompiledStats compiled_stats() {
  CompiledStats stats;
  stats.compiles = g_compiles.load(std::memory_order_relaxed);
  stats.oneshot_compiles = g_oneshot_compiles.load(std::memory_order_relaxed);
  stats.cache_hits_memory = g_hits_memory.load(std::memory_order_relaxed);
  stats.cache_hits_disk = g_hits_disk.load(std::memory_order_relaxed);
  stats.load_rejects = g_load_rejects.load(std::memory_order_relaxed);
  stats.fallbacks = g_fallbacks.load(std::memory_order_relaxed);
  return stats;
}

void compiled_reset_for_testing() { ModuleRegistry::instance().reset(); }

void compiled_set_fingerprint_for_testing(const std::string& salt) {
  {
    std::lock_guard<std::mutex> lock(g_fingerprint_mutex);
    cache::Hasher hasher;
    hasher.mix_string(salt);
    g_fingerprint = hasher.key();
  }
  ModuleRegistry::instance().reset();
}

const std::string& CompiledEngine::name() const {
  static const std::string kName = "compiled";
  return kName;
}

sim::EnginePartition CompiledEngine::run_partition(
    const ir::Design& design, const std::string& node, mem::MemoryPool& pool,
    const sim::EngineRunOptions& options, std::size_t partition_index) {
  util::Stopwatch watch;
  std::shared_ptr<Module> module =
      ModuleRegistry::instance().acquire(design, tier_);
  if (module == nullptr) {
    warn_fallback_once();
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      obs::counter("compiled.fallbacks").inc();
    }
    BatchedEngine fallback("levelized");
    return fallback.run_partition(design, node, pool, options,
                                  partition_index);
  }
  const ir::Configuration& config = design.configuration(node);
  ir::validate(config.datapath);
  ir::validate(config.fsm, config.datapath);
  auto it = module->nodes.find(node);
  if (it == module->nodes.end()) {
    throw util::SimError("compiled: module for design '" + design.name +
                         "' has no node '" + node + "'");
  }
  const FtiCompiledNodeV1* fn = it->second;

  // Layout re-derived from the IR; the module was generated from a
  // design with the same canonical hash, so any disagreement means a
  // broken emitter or loader, not a user error.
  std::vector<std::string> traced = ir::traced_wires(config.datapath);
  std::vector<std::string> memories = cabi::memory_order(config.datapath);
  std::vector<const ir::Unit*> writers = cabi::write_units(config.datapath);
  std::vector<std::size_t> offsets = cabi::taken_offsets(config.fsm);
  if (fn->traced_count != traced.size() ||
      fn->memory_count != memories.size() ||
      fn->write_count != writers.size() ||
      fn->state_count != config.fsm.states.size() ||
      fn->taken_count != offsets.back()) {
    throw util::SimError("compiled: module layout mismatch for node '" +
                         node + "' of design '" + design.name + "'");
  }

  // Memory pool wiring, identical to the interpreted engines: create
  // idempotently, apply the IR init image only on first creation.
  std::map<std::string, mem::MemoryImage*> images;
  std::vector<const unsigned long long*> memory_words;
  for (const ir::MemoryDecl& memory : config.datapath.memories) {
    bool fresh = !pool.contains(memory.name);
    mem::MemoryImage& image =
        pool.create(memory.name, memory.depth, memory.width);
    if (fresh) {
      for (std::size_t i = 0; i < memory.init.size(); ++i) {
        image.write(i, memory.init[i]);
      }
    }
    images.emplace(memory.name, &image);
    // std::uint64_t is unsigned long on LP64; the ABI fixes unsigned
    // long long.  Same 64-bit representation, so the cast is sound.
    memory_words.push_back(
        reinterpret_cast<const unsigned long long*>(image.words().data()));
  }

  sim::EnginePartition result;
  result.node = node;
  HostContext context;
  if (options.collect_wire_data) {
    for (const std::string& wire : traced) {
      context.trace_slots.push_back(&result.traces[wire]);
    }
  }
  for (const ir::Unit* writer : writers) {
    context.write_images.push_back(images.at(writer->memory));
  }

  std::vector<unsigned long long> finals(traced.size(), 0);
  std::vector<unsigned long long> visits(config.fsm.states.size(), 0);
  std::vector<unsigned long long> taken_flat(offsets.back(), 0);
  char error_buffer[1024] = {0};

  FtiCompiledRunV1 io{};
  io.memories = memory_words.data();
  io.max_cycles = options.max_cycles_per_partition;
  io.collect_traces = options.collect_wire_data ? 1 : 0;
  io.host = &context;
  io.trace = &trace_callback;
  io.mem_write = &mem_write_callback;
  io.finals = finals.data();
  io.visits = visits.data();
  io.taken = taken_flat.data();
  io.error = error_buffer;
  io.error_capacity = sizeof(error_buffer);

  int rc = fn->run(&io);
  if (rc == 2) {
    throw util::SimError(error_buffer[0] != '\0'
                             ? std::string(error_buffer)
                             : "compiled: run failed without a message");
  }
  result.cycles = io.cycles;
  result.reason = rc == 0 ? sim::Kernel::StopReason::kDoneNet
                          : sim::Kernel::StopReason::kMaxTime;
  result.stats.events = io.events;
  result.stats.evaluations = io.evaluations;
  result.stats.delta_cycles = io.delta_cycles;
  result.stats.timesteps = io.cycles + 1;
  result.stats.end_time = io.cycles * ops::ClockGen::kDefaultPeriod;
  if (options.collect_wire_data) {
    for (std::size_t s = 0; s < traced.size(); ++s) {
      result.finals.emplace(traced[s], finals[s]);
    }
  }
  std::vector<std::uint64_t> visit_counts(visits.begin(), visits.end());
  std::vector<std::vector<std::uint64_t>> taken(config.fsm.states.size());
  for (std::size_t s = 0; s < config.fsm.states.size(); ++s) {
    taken[s].assign(taken_flat.begin() + offsets[s],
                    taken_flat.begin() + offsets[s + 1]);
  }
  result.coverage = coverage_from_counts(config.fsm, visit_counts, taken);
  result.wall_seconds = watch.seconds();
  if (obs::enabled()) {
    obs::counter("engine.levels_swept")
        .add(io.delta_cycles * fn->comb_depth);
  }
  return result;
}

}  // namespace fti::elab
