//===-- support/OutWriter.h - Bounded-buffer output writer ------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One small writer for bulk output: characters, strings and decimal
/// integers are appended into a fixed 64 KiB buffer that is handed to the
/// sink whenever it fills — `fwrite` to a `FILE*`, or an append onto a
/// `std::string` reply.  Output of any size streams through the one
/// buffer.  The first failed write is remembered (`error()`); later bytes
/// are dropped, so a caller checks once at the end.
///
/// `writeLabelSetLine` is the driver's label-set line on top of it,
/// byte-identical to `printf("%-18s {n1, n2, ...}\n", ...)`, and
/// `RenderOnce` lets an `all-labels` renderer write each distinct row's
/// text once and replay it.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_OUTWRITER_H
#define STCFA_SUPPORT_OUTWRITER_H

#include "support/DenseBitset.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace stcfa {

class OutWriter {
public:
  static constexpr size_t BufferBytes = 64 << 10;

  explicit OutWriter(std::FILE *Sink) : File(Sink) {}
  explicit OutWriter(std::string &Sink) : Str(&Sink) {}
  ~OutWriter() { flush(); }
  OutWriter(const OutWriter &) = delete;
  OutWriter &operator=(const OutWriter &) = delete;

  void put(char C) {
    if (Len == BufferBytes)
      flush();
    Buf[Len++] = C;
  }
  void put(std::string_view S) {
    while (Len + S.size() > BufferBytes) {
      size_t N = BufferBytes - Len;
      std::memcpy(Buf + Len, S.data(), N);
      Len = BufferBytes;
      S.remove_prefix(N);
      flush();
    }
    std::memcpy(Buf + Len, S.data(), S.size());
    Len += S.size();
  }
  void putUInt(uint64_t V) {
    char Digits[20];
    char *P = Digits + sizeof(Digits);
    do
      *--P = static_cast<char>('0' + V % 10);
    while (V /= 10);
    put(std::string_view(P, static_cast<size_t>(Digits + sizeof(Digits) - P)));
  }
  /// Writes each of \p Parts in turn: unsigned integers in decimal,
  /// characters and strings as they are.
  template <typename... Ts> void write(const Ts &...Parts) {
    (writeOne(Parts), ...);
  }
  /// \p S left-justified in \p Width columns, like printf's `%-<Width>s`:
  /// a longer \p S is written whole.
  void putPadded(std::string_view S, size_t Width) {
    put(S);
    for (size_t I = S.size(); I < Width; ++I)
      put(' ');
  }

  /// Hands the buffered bytes to the sink (a FILE sink keeps its own
  /// stdio buffering, so later `printf`s on it stay in order).
  void flush() {
    Total += Len;
    if (Str) {
      Str->append(Buf, Len);
    } else if (!Err && Len != 0) {
      errno = 0;
      if (std::fwrite(Buf, 1, Len, File) != Len)
        Err = errno ? errno : EIO;
    }
    Len = 0;
  }
  /// flush(), then flushes a FILE sink's stdio buffer too: a short write
  /// of bytes stdio still held shows only there.  True iff every byte
  /// reached the sink.
  bool finish() {
    flush();
    if (File && !Err) {
      errno = 0;
      if (std::fflush(File) != 0 || std::ferror(File))
        Err = errno ? errno : EIO;
    }
    return Err == 0;
  }

  /// The errno of the first failed write; 0 while every write succeeded.
  int error() const { return Err; }
  /// Bytes written so far, buffered ones included.
  uint64_t bytes() const { return Total + Len; }

private:
  void writeOne(char C) { put(C); }
  void writeOne(std::string_view S) { put(S); }
  void writeOne(const char *S) { put(std::string_view(S)); }
  void writeOne(uint32_t V) { putUInt(V); }
  void writeOne(uint64_t V) { putUInt(V); }

  std::FILE *File = nullptr;
  std::string *Str = nullptr;
  char Buf[BufferBytes]; ///< inline: a writer lives on the stack and
                        ///< allocates nothing itself
  size_t Len = 0;
  uint64_t Total = 0;
  int Err = 0;
};

/// Writes \p Set as `{n1, n2, ...}`, naming each label id through
/// \p LabelName (`uint32_t -> std::string_view`).
template <typename NameFn>
void writeLabelSet(OutWriter &W, const DenseBitset &Set, NameFn &&LabelName) {
  W.put('{');
  bool First = true;
  Set.forEach([&](uint32_t L) {
    if (!First)
      W.put(", ");
    First = false;
    W.put(LabelName(L));
  });
  W.put('}');
}

/// The driver's label-set line, `%-18s {n1, n2, ...}\n`: \p ExprName
/// padded to 18 columns when it is shorter, a space, then \p SetLine —
/// the set as `writeLabelSet` renders it, newline included.
inline void writeLabelSetLine(OutWriter &W, std::string_view ExprName,
                              std::string_view SetLine) {
  W.putPadded(ExprName, 18);
  W.put(' ');
  W.put(SetLine);
}

/// Text rendered once per id and replayed: the `all-labels` renderers
/// write each distinct label-set row's text once per reply and copy it
/// for every occurrence that shares the row.
class RenderOnce {
public:
  explicit RenderOnce(uint32_t NumIds) : Texts(NumIds) {}

  /// The text of \p Id, written by `Render(OutWriter &)` on first use.
  template <typename RenderFn>
  std::string_view text(uint32_t Id, RenderFn &&Render) {
    std::string &Text = Texts[Id];
    if (Text.empty()) {
      OutWriter W(Text); // flushes into Text as the block ends
      Render(W);
      ++Rendered;
    }
    return Text;
  }

  /// Distinct ids rendered so far.
  uint32_t rendered() const { return Rendered; }

private:
  std::vector<std::string> Texts;
  uint32_t Rendered = 0;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_OUTWRITER_H
