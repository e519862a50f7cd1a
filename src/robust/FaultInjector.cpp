//===- robust/FaultInjector.cpp -------------------------------------------===//

#include "robust/FaultInjector.h"

#include "support/Hash.h"
#include "support/Parse.h"
#include "trace/Scope.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include <unistd.h>

using namespace balign;

namespace {

/// Suppression depth of the current thread (ScopedSuppress nests).
thread_local unsigned SuppressDepth = 0;

/// The one site table: each site's printable name, and which variable
/// may arm it (so which kind of spec it takes).
struct SiteEntry {
  const char *Name;
  bool Fault; ///< BALIGN_FAULT may name it.
  bool Crash; ///< BALIGN_CRASH may name it.
};

constexpr SiteEntry Sites[NumFaultSites] = {
    {"profile.parse", true, false},     {"tsp.transform", true, false},
    {"tsp.solve", true, false},         {"align.greedy", true, false},
    {"pool.task", true, true},          {"cache.load", true, false},
    {"cache.flush", true, false},       {"serve.frame", true, false},
    {"align.chain", true, false},       {"journal.append", true, false},
    {"client.connect", true, false},    {"displace.fixpoint", true, false},
    {"cache.tmp-write", false, true},   {"cache.pre-rename", false, true},
    {"cache.post-rename", false, true}, {"checkpoint.append", false, true},
    {"serve.response", false, true},
};

bool isCrash(const FaultSpec &Spec) {
  return Spec.M == FaultSpec::Mode::Crash;
}

/// Whether BALIGN_CRASH (\p Crash) or BALIGN_FAULT may name \p Site,
/// which is whether the site takes crash specs or fault specs.
bool armableBy(FaultSite Site, bool Crash) {
  const SiteEntry &Entry = Sites[static_cast<size_t>(Site)];
  return Crash ? Entry.Crash : Entry.Fault;
}

std::string injectedFaultText(FaultSite Site) {
  return std::string("injected fault at '") + faultSiteName(Site) + "'";
}

[[noreturn]] void fatal(const std::string &Message) {
  std::fprintf(stderr, "balign fatal: %s\n", Message.c_str());
  std::abort();
}

} // namespace

const char *balign::faultSiteName(FaultSite Site) {
  return Sites[static_cast<size_t>(Site)].Name;
}

std::optional<FaultSite> balign::faultSiteByName(const std::string &Name) {
  for (size_t I = 0; I != NumFaultSites; ++I)
    if (Name == Sites[I].Name)
      return static_cast<FaultSite>(I);
  return std::nullopt;
}

bool FaultSpec::fires(uint64_t Hit) const {
  switch (M) {
  case Mode::Never:
    return false;
  case Mode::Always:
    return true;
  case Mode::Once:
    return Hit == 1;
  case Mode::Nth:
  case Mode::Crash:
    return Hit == K;
  case Mode::Every:
    return K != 0 && Hit % K == 0;
  case Mode::Count:
    return Hit <= K;
  case Mode::Rate:
    // SplitMix64 is the seeded per-hit coin.
    return D != 0 && splitMix64Mix(Seed ^ Hit) % D < K;
  }
  return false;
}

std::optional<FaultSpec> FaultSpec::parse(const std::string &Text,
                                          std::string *Error) {
  auto fail = [&](const std::string &Message) -> std::optional<FaultSpec> {
    if (Error)
      *Error = Message;
    return std::nullopt;
  };
  if (Text == "always")
    return always();
  if (Text == "once")
    return once();
  size_t Eq = Text.find('=');
  if (Eq == std::string::npos || Eq + 1 == Text.size())
    return fail("unknown fault mode '" + Text +
                "' (want always, once, nth=K, every=K, count=K, or "
                "rate=N/D@S)");
  std::string Mode = Text.substr(0, Eq);
  std::string Arg = Text.substr(Eq + 1);
  // Spec parameters are strict decimals, exactly like numeric flags.
  if (Mode == "nth" || Mode == "every" || Mode == "count") {
    std::optional<uint64_t> K = parseFlagInt(Arg);
    if (!K || *K == 0)
      return fail("fault mode '" + Mode + "' wants a positive integer, got '" +
                  Arg + "'");
    if (Mode == "nth")
      return nth(*K);
    if (Mode == "every")
      return every(*K);
    return count(*K);
  }
  if (Mode == "rate") {
    size_t Slash = Arg.find('/');
    size_t At = Arg.find('@');
    if (Slash == std::string::npos || At == std::string::npos || At < Slash)
      return fail("fault mode 'rate' wants N/D@SEED, got '" + Arg + "'");
    std::string_view Parts = Arg;
    std::optional<uint64_t> Num = parseFlagInt(Parts.substr(0, Slash));
    std::optional<uint64_t> Den =
        parseFlagInt(Parts.substr(Slash + 1, At - Slash - 1));
    std::optional<uint64_t> Seed = parseFlagInt(Parts.substr(At + 1));
    if (!Num || !Den || !Seed || *Den == 0)
      return fail("fault mode 'rate' wants N/D@SEED with D > 0, got '" + Arg +
                  "'");
    return rate(*Num, *Den, *Seed);
  }
  return fail("unknown fault mode '" + Mode + "'");
}

FaultInjectedError::FaultInjectedError(FaultSite Site)
    : std::runtime_error(injectedFaultText(Site)), Site(Site) {}

FaultInjector &FaultInjector::instance() {
  static FaultInjector TheInjector;
  static std::once_flag EnvOnce;
  std::call_once(EnvOnce, [] { TheInjector.loadEnvOnce(); });
  return TheInjector;
}

void FaultInjector::loadEnvOnce() {
  for (bool Crash : {false, true}) {
    const char *Var = Crash ? "BALIGN_CRASH" : "BALIGN_FAULT";
    const char *Env = std::getenv(Var);
    if (!Env || !*Env)
      continue;
    // A mistyped CI or chaos spec must fail the run loudly, not fake a
    // green sweep with no fault armed or in which nothing ever died.
    std::string Error;
    if (!(Crash ? armCrashFromSpec(Env, &Error) : armFromSpec(Env, &Error)))
      fatal(std::string(Var) + ": " + Error);
  }
}

void FaultInjector::arm(FaultSite Site, FaultSpec Spec) {
  if (Spec.M != FaultSpec::Mode::Never && !armableBy(Site, isCrash(Spec)))
    fatal(std::string("site '") + faultSiteName(Site) + "' takes no " +
          (isCrash(Spec) ? "crash" : "fault") + " spec");
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t I = static_cast<size_t>(Site);
  bool WasArmed = Specs[I].M != FaultSpec::Mode::Never;
  bool IsArmed = Spec.M != FaultSpec::Mode::Never;
  Specs[I] = Spec;
  Hits[I] = 0;
  if (IsArmed != WasArmed)
    ArmedCount.fetch_add(IsArmed ? 1 : -1, std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Specs.fill(FaultSpec::never());
  Hits.fill(0);
  ArmedCount.store(0, std::memory_order_relaxed);
}

bool FaultInjector::shouldFail(FaultSite Site) {
  if (ArmedCount.load(std::memory_order_relaxed) == 0)
    return false;
  if (SuppressDepth != 0)
    return false;
  bool Fired;
  bool Crash;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    size_t I = static_cast<size_t>(Site);
    uint64_t Hit = ++Hits[I];
    Fired = Specs[I].fires(Hit);
    Crash = isCrash(Specs[I]);
  }
  // _exit, not exit/abort: no atexit handlers, no stream flushes, no
  // destructors — the process state on disk is exactly what the call
  // site had durably written when it "lost power" here.
  if (Fired && Crash)
    ::_exit(CrashExitCode);
  // The total fired count per site is a pure function of the spec and
  // the number of probes, even when parallel workers interleave *which*
  // hit indices they consume — so this is a counter, not a gauge.
  if (Fired)
    scopeCounterAdd("shield.faults-fired");
  return Fired;
}

bool FaultInjector::shouldFail(FaultSite Site, std::string *Error) {
  if (!shouldFail(Site))
    return false;
  if (Error)
    *Error = injectedFaultText(Site);
  return true;
}

uint64_t FaultInjector::hits(FaultSite Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits[static_cast<size_t>(Site)];
}

std::optional<FaultSite>
FaultInjector::siteForVariable(const std::string &Name, bool Crash,
                               std::string *Error) const {
  std::optional<FaultSite> Site = faultSiteByName(Name);
  if (Site && armableBy(*Site, Crash)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    const FaultSpec &Held = Specs[static_cast<size_t>(*Site)];
    if (Held.M == FaultSpec::Mode::Never || isCrash(Held) == Crash)
      return Site;
    if (Error)
      *Error = "site '" + Name + "' already holds a " +
               (Crash ? "fault" : "crash") +
               " spec; BALIGN_FAULT and BALIGN_CRASH cannot both arm one "
               "site";
    return std::nullopt;
  }
  std::string Known;
  for (size_t I = 0; I != NumFaultSites; ++I) {
    if (!armableBy(static_cast<FaultSite>(I), Crash))
      continue;
    if (!Known.empty())
      Known += ", ";
    Known += Sites[I].Name;
  }
  if (Error)
    *Error = std::string("unknown ") + (Crash ? "crash" : "fault") +
             " site '" + Name + "' (known sites: " + Known + ")";
  return std::nullopt;
}

bool FaultInjector::armFromSpec(const std::string &Spec, std::string *Error) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find_first_of(",;", Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;
    size_t Colon = Entry.find(':');
    if (Colon == std::string::npos) {
      if (Error)
        *Error = "expected '<site>:<mode>', got '" + Entry + "'";
      return false;
    }
    std::string SiteName = Entry.substr(0, Colon);
    std::optional<FaultSite> Site =
        siteForVariable(SiteName, /*Crash=*/false, Error);
    if (!Site)
      return false;
    std::string SpecError;
    std::optional<FaultSpec> Parsed =
        FaultSpec::parse(Entry.substr(Colon + 1), &SpecError);
    if (!Parsed) {
      if (Error)
        *Error = SiteName + ": " + SpecError;
      return false;
    }
    arm(*Site, *Parsed);
  }
  return true;
}

bool FaultInjector::armCrashFromSpec(const std::string &Spec,
                                     std::string *Error) {
  std::string SiteName = Spec;
  uint64_t Nth = 1;
  size_t Colon = Spec.find(':');
  if (Colon != std::string::npos) {
    SiteName = Spec.substr(0, Colon);
    // A strict decimal, like BALIGN_FAULT's parameters; hits are 1-based,
    // so a 0th hit could never fire.
    std::optional<uint64_t> Parsed =
        parseFlagInt(std::string_view(Spec).substr(Colon + 1));
    if (!Parsed || *Parsed == 0) {
      if (Error)
        *Error = "expected '<site>[:nth]' with a positive nth, got '" +
                 Spec + "'";
      return false;
    }
    Nth = *Parsed;
  }
  std::optional<FaultSite> Site =
      siteForVariable(SiteName, /*Crash=*/true, Error);
  if (!Site)
    return false;
  arm(*Site, FaultSpec::crash(Nth));
  return true;
}

FaultInjector::ScopedFault::ScopedFault(FaultSite Site, FaultSpec Spec)
    : Site(Site) {
  FaultInjector &Inj = FaultInjector::instance();
  {
    std::lock_guard<std::mutex> Lock(Inj.Mutex);
    Saved = Inj.Specs[static_cast<size_t>(Site)];
    SavedHits = Inj.Hits[static_cast<size_t>(Site)];
  }
  Inj.arm(Site, Spec);
}

FaultInjector::ScopedFault::~ScopedFault() {
  FaultInjector &Inj = FaultInjector::instance();
  Inj.arm(Site, Saved);
  std::lock_guard<std::mutex> Lock(Inj.Mutex);
  Inj.Hits[static_cast<size_t>(Site)] = SavedHits;
}

FaultInjector::ScopedSuppress::ScopedSuppress() { ++SuppressDepth; }

FaultInjector::ScopedSuppress::~ScopedSuppress() { --SuppressDepth; }
