#ifndef COMOVE_TESTS_INT_CODEC_H_
#define COMOVE_TESTS_INT_CODEC_H_

#include "common/serde.h"

namespace comove::flow {

/// The wire codec of the flow tests' `Exchange<int, IntCodec>`: an int
/// as one I32.
struct IntCodec {
  static void Write(BinaryWriter* w, const int& value) {
    w->WriteI32(value);
  }
  static bool Read(BinaryReader* r, int* out) {
    *out = r->ReadI32();
    return r->ok();
  }
};

}  // namespace comove::flow

#endif  // COMOVE_TESTS_INT_CODEC_H_
