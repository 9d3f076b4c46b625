#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fastsc::fault {

namespace detail {
std::atomic<bool> g_active{false};
}  // namespace detail

bool FaultRule::matches_site(std::string_view s) const noexcept {
  if (!site.empty() && site.back() == '*') {
    const std::string_view prefix(site.data(), site.size() - 1);
    return s.substr(0, prefix.size()) == prefix;
  }
  return s == site;
}

namespace {

std::uint64_t parse_u64(std::string_view key, std::string_view v) {
  try {
    return std::stoull(std::string(v));
  } catch (const std::exception&) {
    throw std::invalid_argument("fault plan: key '" + std::string(key) +
                                "' expects a non-negative integer, got '" +
                                std::string(v) + "'");
  }
}

double parse_prob(std::string_view v) {
  double p = 0;
  try {
    p = std::stod(std::string(v));
  } catch (const std::exception&) {
    p = -1;
  }
  if (p < 0 || p > 1) {
    throw std::invalid_argument("fault plan: probability must be in [0, 1], got '" +
                                std::string(v) + "'");
  }
  return p;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  usize pos = 0;
  while (pos <= spec.size()) {
    const usize semi = std::min(spec.find(';', pos), spec.size());
    const std::string_view clause = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (clause.empty()) continue;

    FaultRule rule;
    bool has_site = false;
    bool has_nth = false;
    bool has_prob = false;
    usize cpos = 0;
    while (cpos <= clause.size()) {
      const usize comma = std::min(clause.find(',', cpos), clause.size());
      const std::string_view pair = clause.substr(cpos, comma - cpos);
      cpos = comma + 1;
      if (pair.empty()) continue;
      const usize eq = pair.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument("fault plan: expected key=value, got '" +
                                    std::string(pair) + "'");
      }
      const std::string_view key = pair.substr(0, eq);
      const std::string_view value = pair.substr(eq + 1);
      if (key == "site") {
        rule.site = std::string(value);
        has_site = true;
      } else if (key == "nth") {
        rule.nth = parse_u64(key, value);
        has_nth = true;
      } else if (key == "p" || key == "probability") {
        rule.probability = parse_prob(value);
        rule.nth = 0;
        has_prob = true;
      } else if (key == "count") {
        rule.count = parse_u64(key, value);
      } else if (key == "seed") {
        plan.seed = parse_u64(key, value);
      } else {
        throw std::invalid_argument("fault plan: unknown key '" +
                                    std::string(key) +
                                    "' (expected site/nth/p/count/seed)");
      }
    }
    if (has_nth && has_prob) {
      throw std::invalid_argument(
          "fault plan: a clause may set nth or p, not both");
    }
    if (has_site) {
      if (rule.site.empty()) {
        throw std::invalid_argument("fault plan: empty site name");
      }
      if (rule.nth == 0 && !has_prob) {
        throw std::invalid_argument(
            "fault plan: nth must be >= 1 (use p=... for probability mode)");
      }
      plan.rules.push_back(std::move(rule));
    } else if (has_nth || has_prob) {
      throw std::invalid_argument(
          "fault plan: clause has nth/p but no site=");
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultRule& r : rules) {
    if (!out.empty()) out += ';';
    out += "site=" + r.site;
    if (r.nth > 0) {
      out += ",nth=" + std::to_string(r.nth);
    } else {
      out += ",p=" + std::to_string(r.probability);
    }
    out += ",count=" + std::to_string(r.count);
  }
  if (!out.empty()) out += ';';
  out += "seed=" + std::to_string(seed);
  return out;
}

void Injector::reset_counts_locked() {
  sites_.clear();
  injected_total_ = 0;
  std::uint64_t sm = seed_;
  for (usize i = 0; i < rules_.size(); ++i) {
    rules_[i].triggers = 0;
    // Independent per-rule streams: deterministic in (seed, rule index).
    rules_[i].rng = Rng(splitmix64(sm) ^ (i * 0x9e3779b97f4a7c15ULL));
  }
}

void Injector::refresh_active_locked() {
  detail::g_active.store(armed_ || recording_, std::memory_order_relaxed);
}

void Injector::arm(FaultPlan plan) {
  std::lock_guard lock(mu_);
  seed_ = plan.seed;
  rules_.clear();
  rules_.reserve(plan.rules.size());
  for (FaultRule& r : plan.rules) {
    rules_.push_back(RuleState{std::move(r), 0, Rng(0)});
  }
  armed_ = !rules_.empty();
  reset_counts_locked();
  refresh_active_locked();
}

void Injector::disarm() {
  std::lock_guard lock(mu_);
  armed_ = false;
  rules_.clear();
  refresh_active_locked();
}

bool Injector::armed() const {
  std::lock_guard lock(mu_);
  return armed_;
}

FaultPlan Injector::plan() const {
  std::lock_guard lock(mu_);
  FaultPlan p;
  p.seed = seed_;
  for (const RuleState& rs : rules_) p.rules.push_back(rs.rule);
  return p;
}

void Injector::set_recording(bool on) {
  std::lock_guard lock(mu_);
  recording_ = on;
  if (on) reset_counts_locked();
  refresh_active_locked();
}

bool Injector::recording() const {
  std::lock_guard lock(mu_);
  return recording_;
}

std::map<std::string, SiteStats> Injector::sites_seen() const {
  std::lock_guard lock(mu_);
  return {sites_.begin(), sites_.end()};
}

std::uint64_t Injector::injected_total() const {
  std::lock_guard lock(mu_);
  return injected_total_;
}

bool Injector::on_site(std::string_view site) {
  return on_site_info(site).fired;
}

Injector::FireInfo Injector::on_site_info(std::string_view site) {
  std::uint64_t occurrence = 0;
  std::uint64_t seed = 0;
  bool fire = false;
  {
    std::lock_guard lock(mu_);
    if (!armed_ && !recording_) return {};  // raced with disarm
    seed = seed_;
    auto it = sites_.find(site);
    if (it == sites_.end()) {
      it = sites_.emplace(std::string(site), SiteStats{}).first;
    }
    SiteStats& st = it->second;
    st.occurrences += 1;
    occurrence = st.occurrences;
    if (armed_) {
      for (RuleState& rs : rules_) {
        if (!rs.rule.matches_site(site)) continue;
        if (rs.rule.count != 0 && rs.triggers >= rs.rule.count) continue;
        bool match = false;
        if (rs.rule.nth > 0) {
          match = occurrence >= rs.rule.nth &&
                  (rs.rule.count == 0 ||
                   occurrence < rs.rule.nth + rs.rule.count);
        } else {
          match = rs.rng.uniform() < rs.rule.probability;
        }
        if (match) {
          rs.triggers += 1;
          fire = true;
          break;
        }
      }
    }
    if (fire) {
      st.triggers += 1;
      injected_total_ += 1;
    }
  }
  if (fire) {
    // Registry value, not injected_total_: the registry never resets on
    // re-arm, so the trace counter series stays monotone within a run.
    obs::bump("fault.injected");
    obs::metrics().counter("fault.injected." + std::string(site)).add();
    FASTSC_LOG_WARN("fault injection: triggering at site '"
                    << site << "' (occurrence " << occurrence << ")");
  }
  return FireInfo{fire, occurrence, seed};
}

Injector& injector() {
  static Injector inj;
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    const char* env = std::getenv("FASTSC_FAULTS");
    if (env == nullptr || *env == '\0') return;
    try {
      inj.arm(FaultPlan::parse(env));
      FASTSC_LOG_INFO("fault injection armed from FASTSC_FAULTS: "
                      << inj.plan().to_string());
    } catch (const std::exception& e) {
      FASTSC_LOG_WARN("ignoring malformed FASTSC_FAULTS: " << e.what());
    }
  });
  return inj;
}

namespace {
// Touch the injector during static initialization so a FASTSC_FAULTS plan
// arms (setting detail::g_active) before the first triggered() call — the
// hot path short-circuits on g_active and would otherwise never reach the
// lazy env arming in injector().
[[maybe_unused]] const bool g_env_arm_at_startup = (injector(), true);
}  // namespace

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The deterministic corruption stream: one 64-bit word per fire, a pure
/// function of (plan seed, site, occurrence) so re-arming the same plan
/// flips the same bit of the same element.
std::uint64_t corruption_word(const Injector::FireInfo& info,
                              std::string_view site) {
  std::uint64_t s = info.seed ^ fnv1a(site) ^
                    (info.occurrence * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

}  // namespace

bool corrupt_scalars(std::string_view site, real* data, usize count) {
  if (count == 0 || !active()) return false;
  const Injector::FireInfo info = injector().on_site_info(site);
  if (!info.fired) return false;
  const std::uint64_t h = corruption_word(info, site);
  // Probe from h % count for the first element whose magnitude is at least
  // 1/4 of the payload max, then flip one of its exponent bits (52..62), so
  // the element changes by at least a factor of ~2 — large enough that the
  // ABFT tolerances downstream are guaranteed to see it.
  double maxabs = 0;
  for (usize i = 0; i < count; ++i) {
    maxabs = std::max(maxabs, std::abs(data[i]));
  }
  usize idx = static_cast<usize>(h % count);
  if (maxabs > 0) {
    while (std::abs(data[idx]) < 0.25 * maxabs) idx = (idx + 1) % count;
  }
  const int bit = 52 + static_cast<int>((h >> 32) % 11);
  std::uint64_t w;
  std::memcpy(&w, &data[idx], sizeof(w));
  w ^= std::uint64_t{1} << bit;
  std::memcpy(&data[idx], &w, sizeof(w));
  FASTSC_LOG_WARN("fault injection: bitflip at site '" << site
                  << "' element " << idx << " bit " << bit);
  return true;
}

bool corrupt_bytes(std::string_view site, void* data, usize bytes) {
  if (bytes == 0 || !active()) return false;
  const Injector::FireInfo info = injector().on_site_info(site);
  if (!info.fired) return false;
  const std::uint64_t h = corruption_word(info, site);
  const usize bit_index = static_cast<usize>(h % (bytes * 8));
  auto* p = static_cast<unsigned char*>(data);
  p[bit_index / 8] ^= static_cast<unsigned char>(1u << (bit_index % 8));
  FASTSC_LOG_WARN("fault injection: bitflip at site '" << site << "' byte "
                  << bit_index / 8 << " bit " << bit_index % 8);
  return true;
}

ArmScope::ArmScope(const FaultPlan& plan)
    : previous_(injector().plan()), was_armed_(injector().armed()) {
  injector().arm(plan);
}

ArmScope::~ArmScope() {
  if (was_armed_) {
    injector().arm(previous_);
  } else {
    injector().disarm();
  }
}

}  // namespace fastsc::fault
