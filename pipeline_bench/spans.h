// Spans the benchmark records around each call into a pipeline layer.
//
// A span has a name ("<layer>.<call>"), start and end on the steady clock,
// the span that was open when it started (its parent), and the id of the
// round it belongs to. Spans stay in memory and are written out as JSON when
// the run ends. With recording off, a Scope only reads the clock, which the
// metrics need anyway.
#ifndef PIPELINE_BENCH_SPANS_H_
#define PIPELINE_BENCH_SPANS_H_

#include <map>
#include <string>
#include <vector>

namespace pipeline_bench {

double Now();

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // Index into the recorder's spans; -1 for a root.
  int round = 0;
};

class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const std::string& name);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Closes the span (idempotent) and returns its duration in seconds.
    double End();

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
    double start_;
    double seconds_ = -1;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_round(int round) { round_ = round; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer: each span's duration minus its children's, summed
  // over spans whose name starts with "<layer>.".
  std::map<std::string, double> SelfSecondsByLayer() const;
  bool WriteJson(const std::string& path) const;

 private:
  bool on_ = false;
  int round_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace pipeline_bench

#endif  // PIPELINE_BENCH_SPANS_H_
