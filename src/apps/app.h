// The evaluation applications (§6): two model applications designed to
// exercise Karousos's algorithms (message-of-the-day and stack-dump logging)
// and a wiki application standing in for Wiki.js, plus two apps beyond the
// paper's evaluation — an auction app that maximizes hot-key transaction
// contention, and a mixed-mode router that serves all apps in one run. Each
// factory returns a KEM Program whose handlers the server executes online and
// the verifier re-executes.
#ifndef SRC_APPS_APP_H_
#define SRC_APPS_APP_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/kem/program.h"

namespace karousos {

struct AppSpec {
  std::string name;
  std::shared_ptr<Program> program;
};

// MOTD: users get or set a "message of the day", per-day or for every day.
// All state lives in one shared hashmap variable; every request is handled by
// a single request handler, so all accesses are R-concurrent (children of I)
// and Karousos logs exactly what Orochi-JS does — the paper's pathological
// case (§6.2).
//
// Requests: {"op":"set","day":<d>,"msg":<m>} -> {"ok":true}
//           {"op":"get","day":<d>}           -> {"msg":<m>}
AppSpec MakeMotdApp();

// Stacks: stack-dump logging over the transactional store, with an in-flight
// guard variable that returns retry errors for concurrent same-dump submits,
// a shared digest index variable, and fan-out child handlers for listing —
// the app that exercises handler trees, R-concurrent sibling accesses, and
// the KV interface (§6 "Stack dump logging").
//
// Requests: {"op":"submit","dump":<s>} -> {"ok":true,"new":<b>} | {"retry":true}
//           {"op":"count","dump":<s>}  -> {"count":<n>} | {"retry":true}
//           {"op":"list"}              -> {"dumps":[{digest,count}...]}
AppSpec MakeStacksApp();

// Wiki: pages and comments in the transactional store; a page-index variable,
// a render cache, and a connection-pool statistics object whose logged size
// grows with concurrency (§6.3).
//
// Requests: {"op":"create_page","id","title","content","conn"} -> {"ok":true}
//           {"op":"create_comment","page","text","conn"}       -> {"ok":..}
//           {"op":"render","page","conn"}                      -> {"html":..}
AppSpec MakeWikiApp();

// Auction: listings and bids over the transactional store, built to stress
// the regime the three paper apps never reach — many concurrent clients
// racing read-modify-write transactions on a tiny set of hot rows, with the
// transaction held open across an event boundary. This maximizes no-wait
// lock conflicts and app-level retries (serializable), writer-writer
// exclusion (read committed), and dirty reads (read uncommitted); the
// verify op's double-read makes the weaker levels' anomalies observable to
// the isolation verifier.
//
// Requests: {"op":"open","item":<i>}                          -> {"ok":<b>}
//           {"op":"bid","item":<i>,"amount":<n>,"bidder":<s>} -> {"accepted":<b>,"high":<n>} | {"retry":true}
//           {"op":"query","item":<i>}                         -> {"high":<n>,"bids":<n>,"open":<b>}
//           {"op":"verify","item":<i>}                        -> {"stable":<b>,...} | {"retry":true}
//           {"op":"close","item":<i>}                         -> {"winner":<s>,"high":<n>} | {"retry":true}
//           {"op":"list"}                                     -> {"items":[{item,high,bids}...]}
AppSpec MakeAuctionApp();

// Pingpong: a minimal two-handler app used by unit tests (not part of the
// paper's evaluation): the request handler emits an event whose child handler
// responds with a transformed payload.
AppSpec MakePingpongApp();

// Mixed-mode composition. Each Install*App contributes the app's two halves:
// its DefineFunction calls into `program`, and one init step (appended to
// `init_steps`) that declares the app's globals and registers its handlers —
// with the request handler bound to `request_event` instead of
// kRequestEventName. The Make*App factories above are thin wrappers
// (request_event == kRequestEventName, one init step).
void InstallMotdApp(Program& program, std::string request_event,
                    std::vector<HandlerFn>* init_steps);
void InstallStacksApp(Program& program, std::string request_event,
                      std::vector<HandlerFn>* init_steps);
void InstallWikiApp(Program& program, std::string request_event,
                    std::vector<HandlerFn>* init_steps);
void InstallAuctionApp(Program& program, std::string request_event,
                       std::vector<HandlerFn>* init_steps);

// Mixed: all four apps installed into one Program behind a router request
// handler. Requests are {"app":<motd|stacks|wiki|auction>,"req":<payload>}
// envelopes; the router re-emits the inner payload on a per-app event, so
// each app keeps its own handler trees (and therefore its own re-execution
// groups) while sharing one server, one store, and one advice stream.
AppSpec MakeMixedApp();

// The apps picked by name (`karousos --app`, tools, tests and benchmarks):
// motd, stacks, wiki, auction and mixed. nullopt for any other name;
// pingpong is for unit tests only and is not listed.
std::optional<AppSpec> MakeApp(std::string_view name);

}  // namespace karousos

#endif  // SRC_APPS_APP_H_
