//===- robust/FaultInjector.cpp -------------------------------------------===//

#include "robust/FaultInjector.h"

#include "support/Hash.h"
#include "support/Parse.h"
#include "trace/Scope.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

using namespace balign;

namespace {

/// Suppression depth of the current thread (ScopedSuppress nests).
thread_local unsigned SuppressDepth = 0;

} // namespace

const char *balign::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::ProfileParse:
    return "profile.parse";
  case FaultSite::TspTransform:
    return "tsp.transform";
  case FaultSite::TspSolve:
    return "tsp.solve";
  case FaultSite::AlignGreedy:
    return "align.greedy";
  case FaultSite::PoolTask:
    return "pool.task";
  case FaultSite::CacheLoad:
    return "cache.load";
  case FaultSite::CacheFlush:
    return "cache.flush";
  case FaultSite::ServeFrame:
    return "serve.frame";
  case FaultSite::AlignChain:
    return "align.chain";
  case FaultSite::JournalAppend:
    return "journal.append";
  case FaultSite::ClientConnect:
    return "client.connect";
  case FaultSite::DisplaceFixpoint:
    return "displace.fixpoint";
  }
  return "?";
}

std::optional<FaultSite> balign::faultSiteByName(const std::string &Name) {
  for (size_t I = 0; I != NumFaultSites; ++I) {
    FaultSite Site = static_cast<FaultSite>(I);
    if (Name == faultSiteName(Site))
      return Site;
  }
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
    : std::runtime_error(std::string("injected fault at '") +
                         faultSiteName(Site) + "'"),
      Site(Site) {}

FaultInjector &FaultInjector::instance() {
  static FaultInjector TheInjector;
  static std::once_flag EnvOnce;
  std::call_once(EnvOnce, [] { TheInjector.loadEnvOnce(); });
  return TheInjector;
}

void FaultInjector::loadEnvOnce() {
  const char *Env = std::getenv("BALIGN_FAULT");
  if (!Env || !*Env)
    return;
  std::string Error;
  if (!armFromSpec(Env, &Error)) {
    // A mistyped CI spec must fail the run loudly, not fake a green
    // sweep with no faults armed.
    std::fprintf(stderr, "balign fatal: BALIGN_FAULT: %s\n", Error.c_str());
    std::abort();
  }
}

void FaultInjector::arm(FaultSite Site, FaultSpec Spec) {
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
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    size_t I = static_cast<size_t>(Site);
    uint64_t Hit = ++Hits[I];
    Fired = Specs[I].fires(Hit);
  }
  // The total fired count per site is a pure function of the spec and
  // the number of probes, even when parallel workers interleave *which*
  // hit indices they consume — so this is a counter, not a gauge.
  if (Fired)
    scopeCounterAdd("shield.faults-fired");
  return Fired;
}

uint64_t FaultInjector::hits(FaultSite Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits[static_cast<size_t>(Site)];
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
    std::optional<FaultSite> Site = faultSiteByName(SiteName);
    if (!Site) {
      std::string Known;
      for (size_t I = 0; I != NumFaultSites; ++I) {
        if (I)
          Known += ", ";
        Known += faultSiteName(static_cast<FaultSite>(I));
      }
      if (Error)
        *Error = "unknown fault site '" + SiteName + "' (known sites: " +
                 Known + ")";
      return false;
    }
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
