#include "sim/observers.hh"

namespace aosd
{

namespace obsdetail
{
constinit thread_local std::uint8_t mask = 0;
} // namespace obsdetail

} // namespace aosd
