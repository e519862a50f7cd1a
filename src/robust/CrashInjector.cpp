//===- robust/CrashInjector.cpp -------------------------------------------===//

#include "robust/CrashInjector.h"

#include "support/Parse.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include <unistd.h>

using namespace balign;

const char *balign::crashSiteName(CrashSite Site) {
  switch (Site) {
  case CrashSite::CacheTmpWrite:
    return "cache.tmp-write";
  case CrashSite::CachePreRename:
    return "cache.pre-rename";
  case CrashSite::CachePostRename:
    return "cache.post-rename";
  case CrashSite::CheckpointAppend:
    return "checkpoint.append";
  case CrashSite::ServeResponse:
    return "serve.response";
  case CrashSite::PoolTask:
    return "pool.task";
  }
  return "?";
}

std::optional<CrashSite> balign::crashSiteByName(const std::string &Name) {
  for (size_t I = 0; I != NumCrashSites; ++I) {
    CrashSite Site = static_cast<CrashSite>(I);
    if (Name == crashSiteName(Site))
      return Site;
  }
  return std::nullopt;
}

CrashInjector &CrashInjector::instance() {
  static CrashInjector TheInjector;
  static std::once_flag EnvOnce;
  std::call_once(EnvOnce, [] { TheInjector.loadEnvOnce(); });
  return TheInjector;
}

void CrashInjector::loadEnvOnce() {
  const char *Env = std::getenv("BALIGN_CRASH");
  if (!Env || !*Env)
    return;
  std::string Error;
  if (!armFromSpec(Env, &Error)) {
    // A mistyped chaos spec must fail the run loudly, not fake a green
    // sweep in which nothing ever died.
    std::fprintf(stderr, "balign fatal: BALIGN_CRASH: %s\n", Error.c_str());
    std::abort();
  }
}

void CrashInjector::arm(CrashSite Site, uint64_t Nth) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ArmedSite = Site;
  FatalHit = Nth;
  HitCounts[static_cast<size_t>(Site)] = 0;
  Armed.store(Nth != 0, std::memory_order_relaxed);
}

void CrashInjector::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  FatalHit = 0;
  for (uint64_t &H : HitCounts)
    H = 0;
  Armed.store(false, std::memory_order_relaxed);
}

void CrashInjector::crashPoint(CrashSite Site) {
  if (!Armed.load(std::memory_order_relaxed))
    return;
  bool Die;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    uint64_t Hit = ++HitCounts[static_cast<size_t>(Site)];
    Die = FatalHit != 0 && Site == ArmedSite && Hit == FatalHit;
  }
  if (Die) {
    // _exit, not exit/abort: no atexit handlers, no stream flushes, no
    // destructors — the process state on disk is exactly what the call
    // site had durably written when it "lost power" here.
    ::_exit(CrashExitCode);
  }
}

uint64_t CrashInjector::hits(CrashSite Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return HitCounts[static_cast<size_t>(Site)];
}

bool CrashInjector::armFromSpec(const std::string &Spec, std::string *Error) {
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
  std::optional<CrashSite> Site = crashSiteByName(SiteName);
  if (!Site) {
    std::string Known;
    for (size_t I = 0; I != NumCrashSites; ++I) {
      if (I)
        Known += ", ";
      Known += crashSiteName(static_cast<CrashSite>(I));
    }
    if (Error)
      *Error = "unknown crash site '" + SiteName + "' (known sites: " +
               Known + ")";
    return false;
  }
  arm(*Site, Nth);
  return true;
}
