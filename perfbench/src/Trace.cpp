//===- Trace.cpp - In-memory spans for the traced run ---------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace pb {

namespace {
std::atomic<Tracer *> ActiveTracer{nullptr};
std::atomic<int> NextTid{0};
thread_local int CurrentSpan = -1;
thread_local int ThreadId = -1;

int threadId() {
  if (ThreadId < 0)
    ThreadId = NextTid.fetch_add(1);
  return ThreadId;
}
} // namespace

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

void Tracer::activate() { ActiveTracer.store(this); }

Tracer *Tracer::active() { return ActiveTracer.load(); }

void Tracer::deactivate() { ActiveTracer.store(nullptr); }

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int Tracer::begin(const char *Name, int Parent, int Tid) {
  double Now = nowUs();
  std::lock_guard<std::mutex> Lock(M);
  Records.push_back(Record{Name, Now, Now, Parent, Tid});
  return static_cast<int>(Records.size()) - 1;
}

void Tracer::end(int Index) {
  double Now = nowUs();
  std::lock_guard<std::mutex> Lock(M);
  Records[static_cast<size_t>(Index)].EndUs = Now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Records.size();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> ChildUs(Records.size(), 0.0);
  for (const Record &R : Records)
    if (R.Parent >= 0)
      ChildUs[static_cast<size_t>(R.Parent)] += R.EndUs - R.StartUs;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    Totals &T = Out[R.Name];
    T.InclusiveMs += (R.EndUs - R.StartUs) / 1000.0;
    T.SelfMs += (R.EndUs - R.StartUs - ChildUs[I]) / 1000.0;
    ++T.Count;
  }
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\": [\n";
  char Buf[256];
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  R.Name, R.Tid, R.StartUs, R.EndUs - R.StartUs, I,
                  R.Parent);
    Out << Buf << (I + 1 < Records.size() ? ",\n" : "\n");
  }
  Out << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(Out);
}

double Tracer::spanCostUs() {
  // Time spans that enclose nothing on a private tracer; the thread's
  // parent link is saved and restored around the loop.
  Tracer Probe;
  Tracer *Saved = ActiveTracer.exchange(&Probe);
  constexpr int N = 20000;
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I < N; ++I)
    Span S("probe");
  double Us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  ActiveTracer.store(Saved);
  return Us / N;
}

Span::Span(const char *Name) : T(Tracer::active()) {
  if (!T)
    return;
  SavedParent = CurrentSpan;
  Index = T->begin(Name, CurrentSpan, threadId());
  CurrentSpan = Index;
}

Span::~Span() {
  if (!T)
    return;
  T->end(Index);
  CurrentSpan = SavedParent;
}

} // namespace pb
