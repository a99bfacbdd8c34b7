#include "pipeline_bench/spans.h"

#include <chrono>
#include <cstdio>

namespace pipeline_bench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const std::string& name)
    : recorder_(recorder), start_(Now()) {
  if (recorder_ != nullptr && recorder_->on_) {
    Span span;
    span.name = name;
    span.start = start_;
    span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
    span.round = recorder_->round_;
    index_ = static_cast<int>(recorder_->spans_.size());
    recorder_->spans_.push_back(std::move(span));
    recorder_->open_.push_back(index_);
  }
}

double SpanRecorder::Scope::End() {
  if (seconds_ >= 0) return seconds_;
  double end = Now();
  seconds_ = end - start_;
  if (index_ >= 0) {
    recorder_->spans_[index_].end = end;
    // Scopes nest, so the span closing is the innermost open one.
    if (!recorder_->open_.empty() && recorder_->open_.back() == index_) {
      recorder_->open_.pop_back();
    }
  }
  return seconds_;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end - span.start;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.6f, \"end_s\": %.6f, "
                 "\"parent\": %d, \"round\": %d}%s\n",
                 i, s.name.c_str(), s.start - origin, s.end - origin, s.parent, s.round,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace pipeline_bench
