#include "dist/native_table.hpp"

namespace rwr::dist {

#define RWR_TABLE NativeTable
#define RWR_STEP
#define RWR_RETURN return
#include "dist/table_protocol.inc"

}  // namespace rwr::dist
