// Global operator new and delete replaced by counting ones (counting_new.cpp).
// A binary that links counting_new.cpp counts every allocation it makes.
#pragma once

#include <cstdint>

namespace amjs::test_support {

/// Allocations made through operator new since the program started.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace amjs::test_support
