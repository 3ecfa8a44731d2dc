//===- Synth.cpp ----------------------------------------------------------===//

#include "Synth.h"

#include "corpus/Corpus.h"
#include "fuzz/Fuzz.h"

#include <algorithm>
#include <stdexcept>

using namespace vault;

namespace e2e {

namespace {

/// One function template. `@F@` is the function name, `@K@` a seeded
/// literal. The defective copy replaces DefectFrom (a whole line) by
/// DefectTo, keeping the line count, and the checker then reports
/// exactly Expect for the function.
struct Template {
  const char *Body;
  const char *DefectFrom;
  const char *DefectTo;
  std::vector<DiagId> Expect;
};

const std::vector<Template> &templates() {
  static const std::vector<Template> T = {
      // Region loop nest: the flow checker iterates both loops to a
      // fixpoint. Defect: r is never deleted.
      {"void @F@(int n, bool b) {\n"
       "  int tag = 100000000;\n"
       "  tracked region r = Region.create();\n"
       "  int i = 0;\n"
       "  while (i < n) {\n"
       "    int j = 0;\n"
       "    while (j < n) {\n"
       "      tracked region t = Region.create();\n"
       "      if (b) {\n"
       "        tracked region u = Region.create();\n"
       "        Region.delete(u);\n"
       "      }\n"
       "      Region.delete(t);\n"
       "      j++;\n"
       "    }\n"
       "    i++;\n"
       "  }\n"
       "  if (b) { Region.delete(r); }\n"
       "  else { Region.delete(r); }\n"
       "}\n",
       "  if (b) { Region.delete(r); }\n  else { Region.delete(r); }\n",
       "  if (b) { tag = 1; }\n  else { tag = 2; }\n",
       {DiagId::FlowKeyLeaked}},
      // Socket lifecycle with an accept loop. Defect: listen is
      // skipped, so accept sees the socket in state `named`.
      {"void @F@(int n, bool b) {\n"
       "  int tag = 100000000;\n"
       "  sockaddr addr = new sockaddr {port=@K@;};\n"
       "  tracked(@raw) sock s = socket('UNIX, 'STREAM, 0);\n"
       "  bind(s, addr);\n"
       "  listen(s, 4);\n"
       "  int i = 0;\n"
       "  while (i < n) {\n"
       "    tracked(@ready) sock client = sim_client(@K@);\n"
       "    tracked(N) sock conn = accept(s, addr);\n"
       "    sim_send(client, \"msg\");\n"
       "    byte[] buf = make_buffer(8);\n"
       "    receive(conn, buf);\n"
       "    close(client);\n"
       "    close(conn);\n"
       "    i++;\n"
       "  }\n"
       "  close(s);\n"
       "}\n",
       "  listen(s, 4);\n", "  tag = tag + 1;\n", {DiagId::FlowKeyWrongState}},
      // A guarded cell borrowed and revoked once per iteration under a
      // held mutex. Defect: the mutex is never destroyed.
      {"void @F@(int n, bool b) {\n"
       "  int tag = 100000000;\n"
       "  tracked(M) mutex m = mutex_create();\n"
       "  mutex_acquire(m);\n"
       "  guarded<M> tracked(D) cell d = cell_new(m, @K@);\n"
       "  int i = 0;\n"
       "  while (i < n) {\n"
       "    borrow w = d;\n"
       "    w.val = w.val + i;\n"
       "    endborrow w;\n"
       "    i = i + 1;\n"
       "  }\n"
       "  free(d);\n"
       "  mutex_release(m);\n"
       "  mutex_destroy(m);\n"
       "}\n",
       "  mutex_destroy(m);\n", "  tag = 0;\n", {DiagId::FlowKeyLeaked}},
      // Keyed-variant switch (the paper's §2.4 fix of Fig. 5). Defect:
      // the 'Alive case forgets the delete, so the switch arms disagree
      // and the key leaks.
      {"void @F@(int n, bool b) {\n"
       "  int tag = 100000000;\n"
       "  tracked(R) region rgn = Region.create();\n"
       "  R:point pt = new(rgn) point {x=@K@; y=n;};\n"
       "  tracked holds<R> flag;\n"
       "  if (b) {\n"
       "    pt.y = 0;\n"
       "    Region.delete(rgn);\n"
       "    flag = 'Deleted;\n"
       "  } else {\n"
       "    pt.y = pt.x;\n"
       "    flag = 'Alive{R};\n"
       "  }\n"
       "  switch (flag) {\n"
       "    case 'Deleted:\n"
       "      print(\"deleted\");\n"
       "    case 'Alive:\n"
       "      Region.delete(rgn);\n"
       "  }\n"
       "}\n",
       "    case 'Alive:\n      Region.delete(rgn);\n",
       "    case 'Alive:\n      print(\"alive\");\n",
       {DiagId::FlowJoinMismatch, DiagId::FlowKeyLeaked}},
  };
  return T;
}

void replaceAll(std::string &S, const std::string &From,
                const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
}

unsigned countLines(const std::string &S) {
  return static_cast<unsigned>(std::count(S.begin(), S.end(), '\n'));
}

} // namespace

int SynthUnit::functionAt(unsigned Buffer, unsigned Line) const {
  for (size_t I = 0; I < Functions.size(); ++I) {
    const SynthFunction &F = Functions[I];
    if (F.Buffer == Buffer && Line >= F.FirstLine && Line <= F.LastLine)
      return static_cast<int>(I);
  }
  return -1;
}

SynthUnit makeUnit(uint64_t Seed, unsigned Functions, unsigned NumBuffers) {
  std::string Prelude;
  for (const char *Inc : {"region.vlt", "sockets.vlt", "locks.vlt", "io.vlt"}) {
    std::string Text = corpus::loadInclude(Inc);
    if (Text.empty())
      throw std::runtime_error(std::string("cannot load corpus include ") +
                               Inc);
    Prelude += Text;
  }
  Prelude += "variant holds<key K> [ 'Deleted | 'Alive {K} ];\n";

  fuzz::Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x5E7);
  const unsigned Block = 64;
  std::vector<bool> Defective(Functions, false);
  for (unsigned B = 0; B < Functions; B += Block)
    Defective[B + R.below(std::min(Block, Functions - B))] = true;

  SynthUnit U;
  const unsigned PerBuffer = (Functions + NumBuffers - 1) / NumBuffers;
  std::string Cur;
  unsigned Lines = 0;
  for (unsigned I = 0; I < Functions; ++I) {
    if (I % PerBuffer == 0) {
      Cur = U.Buffers.empty() ? Prelude : "";
      Lines = countLines(Cur);
    }
    const Template &T = templates()[I % templates().size()];
    SynthFunction F;
    F.Name = "fn" + std::to_string(I);
    F.Buffer = static_cast<unsigned>(U.Buffers.size());
    std::string Body = T.Body;
    replaceAll(Body, "@F@", F.Name);
    replaceAll(Body, "@K@", std::to_string(7000 + R.below(1000)));
    if (Defective[I]) {
      size_t At = Body.find(T.DefectFrom);
      if (At == std::string::npos)
        throw std::logic_error("template defect site missing");
      Body.replace(At, std::string(T.DefectFrom).size(), T.DefectTo);
      F.Expect = T.Expect;
      std::sort(F.Expect.begin(), F.Expect.end());
    }
    F.FirstLine = Lines + 1;
    Lines += countLines(Body);
    F.LastLine = Lines;
    F.TagOffset = Cur.size() + Body.find("100000000");
    Cur += Body;
    U.Functions.push_back(std::move(F));
    if ((I + 1) % PerBuffer == 0 || I + 1 == Functions) {
      char Name[32];
      std::snprintf(Name, sizeof(Name), "unit%02zu.vlt", U.Buffers.size());
      U.Buffers.emplace_back(Name, std::move(Cur));
    }
  }
  return U;
}

void setTag(std::string &Text, size_t Offset, uint64_t Value) {
  std::string Digits = std::to_string(Value);
  if (Digits.size() != TagDigits || Offset + TagDigits > Text.size())
    throw std::logic_error("tag literal out of range");
  Text.replace(Offset, TagDigits, Digits);
}

std::vector<Kernel> makeKernels(uint64_t Seed) {
  // Sizes are fixed so every seed does the same dynamic work: each
  // kernel takes about a sixth of a run-dynamic pass (the three
  // together about half). The seed moves only the start values.
  fuzz::Rng R(Seed * 0xD1B54A32D192ED03ull + 0x4B);
  std::string Bias = std::to_string(R.range(1, 9));
  std::vector<Kernel> K;
  K.push_back({"kernel/arith_loop",
               "//!include io.vlt\n"
               "int work(int n) {\n"
               "  int i = 0;\n"
               "  int acc = " + Bias + ";\n"
               "  while (i < n) {\n"
               "    acc = acc + i * 3 - (i / 2);\n"
               "    i = i + 1;\n"
               "  }\n"
               "  return acc;\n"
               "}\n"
               "void main() { print_int(work(200)); }\n"});
  K.push_back({"kernel/recursive_calls",
               "//!include io.vlt\n"
               "int fib(int n) {\n"
               "  if (n < 2) { return n + " + Bias + " - " + Bias + "; }\n"
               "  return fib(n - 1) + fib(n - 2);\n"
               "}\n"
               "void main() { print_int(fib(11)); }\n"});
  K.push_back({"kernel/tracked_fields",
               "//!include region.vlt\n"
               "//!include io.vlt\n"
               "void main() {\n"
               "  tracked(R) region rgn = Region.create();\n"
               "  R:point pt = new(rgn) point {x=" + Bias + "; y=0;};\n"
               "  int i = 0;\n"
               "  while (i < 150) {\n"
               "    pt.x = pt.x + 1;\n"
               "    pt.y = pt.y + pt.x;\n"
               "    i = i + 1;\n"
               "  }\n"
               "  print_int(pt.y);\n"
               "  Region.delete(rgn);\n"
               "}\n"});
  for (Kernel &Each : K)
    Each.Text = corpus::resolveIncludes(Each.Text);
  return K;
}

} // namespace e2e
