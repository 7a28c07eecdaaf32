#include <algorithm>
#include <cmath>
#include <fstream>

#include "common.h"

namespace perfbench {

Spans::Scope::Scope(Spans* spans, std::string name, std::string id)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.parent = spans_->open_.empty() ? -1 : spans_->open_.back();
  s.rep = spans_->rep_;
  s.start_ns = spans_->now_ns();
  index_ = static_cast<int>(spans_->spans_.size());
  spans_->spans_.push_back(std::move(s));
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[static_cast<std::size_t>(index_)].end_ns = spans_->now_ns();
  spans_->open_.pop_back();
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double Spans::total_ms(const std::string& name, int rep) const {
  std::size_t n = 0;
  return mean_ms(name, rep, &n) * static_cast<double>(n);
}

double Spans::mean_ms(const std::string& name, int rep,
                      std::size_t* count) const {
  double total = 0;
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (s.rep != rep || s.name != name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++n;
  }
  if (count != nullptr) *count = n;
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

namespace {
std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

bool Spans::write_json(const std::string& path, int rep) const {
  std::ofstream f(path);
  if (!f) return false;
  // "i" and "parent" index the recorder, so parents resolve across the
  // filtered list.
  f << "{\"unit\": \"ns\", \"rep\": " << rep << ", \"spans\": [";
  const char* sep = "\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.rep != rep) continue;
    f << sep << "  {\"i\": " << i << ", \"name\": \"" << escape(s.name)
      << "\", \"id\": \"" << escape(s.id) << "\", \"start\": " << s.start_ns
      << ", \"end\": " << s.end_ns << ", \"parent\": " << s.parent << "}";
    sep = ",\n";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace perfbench
