#include "ckpt/io.hpp"

#include <bit>

namespace manet::ckpt {

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

}  // namespace manet::ckpt
