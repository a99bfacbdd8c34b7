#include "src/apps/app.h"

namespace karousos {

std::optional<AppSpec> MakeApp(std::string_view name) {
  if (name == "motd") {
    return MakeMotdApp();
  }
  if (name == "stacks") {
    return MakeStacksApp();
  }
  if (name == "wiki") {
    return MakeWikiApp();
  }
  if (name == "auction") {
    return MakeAuctionApp();
  }
  if (name == "mixed") {
    return MakeMixedApp();
  }
  return std::nullopt;
}

}  // namespace karousos
