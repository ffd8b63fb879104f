#include "script/triggers.h"

#include "common/logging.h"
#include "views/view.h"

namespace gamedb::script {

TriggerSystem::TriggerSystem(Interpreter* interp, TriggerOptions options)
    : interp_(interp), options_(options) {}

TriggerSystem::~TriggerSystem() {
  for (const Watch& w : watches_) {
    if (w.enter != kNoHandle) w.view->RemoveOnEnter(w.enter);
    if (w.exit != kNoHandle) w.view->RemoveOnExit(w.exit);
    if (w.update != kNoHandle) w.view->RemoveOnUpdate(w.update);
  }
}

void TriggerSystem::Fire(const std::string& event, std::vector<Value> args) {
  FireFrom(/*parent_depth=*/0, event, std::move(args));
}

void TriggerSystem::FireFrom(uint32_t parent_depth, const std::string& event,
                             std::vector<Value> args) {
  ++stats_.fired;
  uint32_t depth = parent_depth;
  if (depth >= options_.max_cascade_depth) {
    ++stats_.dropped_depth;
    return;
  }
  if (queue_.size() >= options_.max_queue) {
    ++stats_.dropped_queue;
    return;
  }
  queue_.push_back(Pending{event, std::move(args), depth});
}

Status TriggerSystem::Pump() {
  Status first_error = Status::OK();
  while (!queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    current_depth_ = p.depth + 1;  // children of this event run one deeper
    size_t completed = 0;
    Status st = interp_->FireEvent(p.event, p.args, &completed);
    // Count only invocations that actually completed: when a handler errors,
    // FireEvent stops, so crediting HandlerCount() here would overcount
    // (the header promises "handler invocations completed").
    stats_.handled += completed;
    if (!st.ok()) {
      ++stats_.errors;
      if (first_error.ok()) first_error = st;
    }
  }
  current_depth_ = 0;
  return first_error;
}

void TriggerSystem::WatchView(views::LiveView* view, std::string enter_event,
                              std::string exit_event,
                              std::string update_event) {
  // A watch wired to an event nothing handles fires into the void every
  // membership change — almost always a typo'd event name. Warn (not fail:
  // the handler pack may legitimately load after the watch is set up).
  for (const std::string& event : {enter_event, exit_event, update_event}) {
    if (!event.empty() && interp_->HandlerCount(event) == 0) {
      GAMEDB_LOG(kWarn) << "TriggerSystem::WatchView: no 'on " << event
                        << "' handler is loaded; view events will be "
                           "dropped until one is";
    }
  }
  Watch watch{view, kNoHandle, kNoHandle, kNoHandle};
  if (!enter_event.empty()) {
    watch.enter =
        view->OnEnter([this, event = std::move(enter_event)](EntityId e) {
          Fire(event, {Value(e)});
        });
  }
  if (!exit_event.empty()) {
    watch.exit =
        view->OnExit([this, event = std::move(exit_event)](EntityId e) {
          Fire(event, {Value(e)});
        });
  }
  if (!update_event.empty()) {
    watch.update =
        view->OnUpdate([this, event = std::move(update_event)](EntityId e) {
          Fire(event, {Value(e)});
        });
  }
  watches_.push_back(watch);
}

void TriggerSystem::InstallFireBuiltin() {
  interp_->RegisterBuiltin(
      "fire", [this](ArgSpan args, SiteBinding&,
                     Interpreter&) -> Result<Value> {
        if (args.empty() || !args[0].IsString()) {
          return Status::InvalidArgument(
              "fire(\"event\", args...) requires an event name");
        }
        std::string event = args[0].AsString();
        std::vector<Value> rest(args.begin() + 1, args.end());
        FireFrom(current_depth_, event, std::move(rest));
        return Value::Nil();
      });
}

}  // namespace gamedb::script
