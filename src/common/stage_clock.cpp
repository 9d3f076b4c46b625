#include "common/stage_clock.h"

#include <algorithm>

namespace fastsc {

StageClock::StageClock(const StageClock& other) {
  std::lock_guard lock(other.mu_);
  entries_ = other.entries_;
  timer_ = other.timer_;
  running_ = other.running_;
}

StageClock& StageClock::operator=(const StageClock& other) {
  if (this == &other) return *this;
  // Lock both; address order prevents deadlock on cross-assignment.
  std::scoped_lock lock(mu_, other.mu_);
  entries_ = other.entries_;
  timer_ = other.timer_;
  running_ = other.running_;
  return *this;
}

StageClock::StageClock(StageClock&& other) noexcept {
  std::lock_guard lock(other.mu_);
  entries_ = std::move(other.entries_);
  timer_ = other.timer_;
  running_ = std::move(other.running_);
  other.running_.clear();
}

StageClock& StageClock::operator=(StageClock&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  entries_ = std::move(other.entries_);
  timer_ = other.timer_;
  running_ = std::move(other.running_);
  other.running_.clear();
  return *this;
}

StageClock::Entry& StageClock::entry_locked(std::string_view stage) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.name == stage; });
  if (it != entries_.end()) return *it;
  entries_.push_back(Entry{std::string(stage), 0.0});
  return entries_.back();
}

void StageClock::start(std::string_view stage) {
  std::lock_guard lock(mu_);
  if (!running_.empty()) {
    // Pause the enclosing stage: bank its elapsed slice now so the nested
    // stage's time is excluded from it (exclusive/self accounting).
    entries_[static_cast<usize>(running_.back())].seconds += timer_.seconds();
  }
  Entry& e = entry_locked(stage);
  running_.push_back(static_cast<int>(&e - entries_.data()));
  timer_.reset();
}

void StageClock::stop() {
  std::lock_guard lock(mu_);
  if (running_.empty()) return;
  entries_[static_cast<usize>(running_.back())].seconds += timer_.seconds();
  running_.pop_back();
  // Resume the preempted stage from now.
  timer_.reset();
}

double StageClock::seconds(std::string_view stage) const {
  std::lock_guard lock(mu_);
  for (const Entry& e : entries_) {
    if (e.name == stage) return e.seconds;
  }
  return 0.0;
}

double StageClock::total_seconds() const {
  std::lock_guard lock(mu_);
  double total = 0;
  for (const Entry& e : entries_) total += e.seconds;
  return total;
}

std::vector<std::string> StageClock::stages() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

usize StageClock::depth() const {
  std::lock_guard lock(mu_);
  return running_.size();
}

void StageClock::clear() {
  std::lock_guard lock(mu_);
  entries_.clear();
  running_.clear();
}

}  // namespace fastsc
