(* The queue is a binary min-heap over two unboxed arrays: float keys
   and int slot ids. Handlers live in a slot table beside it, so a
   sift level moves a float and an int and runs no write barrier; the
   only pointer stores are the handler written at [schedule] and the
   one cleared at pop.

   Positions [len, capacity) of [slots] hold the free slot ids: a pop
   leaves its slot at the position the heap just gave up, and a
   schedule takes the slot at position [len].

   Sifting moves a hole instead of swapping entries; each entry lands
   where a swap would have put it, so the tie rules are those of a
   swap-based heap: sift-up passes a parent only on a strictly smaller
   key, and sift-down moves the smaller child up, the left child
   winning equal keys. *)

(* The clock sits in an all-float record, stored flat, so advancing it
   does not box a float per event. *)
type clock = { mutable now : float }

type t = {
  mutable keys : float array;
  mutable slots : int array;
  mutable handlers : (t -> unit) array;
  mutable len : int;
  clock : clock;
  mutable processed : int;
  mutable stopped : bool;
}

let idle (_ : t) = ()

let create () =
  { keys = [||]; slots = [||]; handlers = [||]; len = 0; clock = { now = 0. };
    processed = 0; stopped = false }

let stop t = t.stopped <- true

let now t = t.clock.now

(* Called on a full queue, when every slot is live: the new slots are
   free, at the new positions. *)
let grow t =
  let cap = Array.length t.keys in
  let cap' = Stdlib.max 16 (2 * cap) in
  let keys = Array.make cap' 0. and slots = Array.init cap' Fun.id in
  let handlers = Array.make cap' idle in
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.handlers 0 handlers 0 cap;
  t.keys <- keys;
  t.slots <- slots;
  t.handlers <- handlers

(* [key] and [slot] stand in for the hole at position [i]. *)
let sift_up t i key slot =
  let keys = t.keys and slots = t.slots in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else moving := false
  done;
  keys.(!i) <- key;
  slots.(!i) <- slot

(* [key] and [slot] stand in for the hole at the root: the left child
   moves up when strictly smaller than [key], the right one when
   strictly smaller than that. *)
let sift_down t key slot =
  let keys = t.keys and slots = t.slots and len = t.len in
  let i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = ref !i and ck = ref key in
    if l < len && keys.(l) < !ck then begin
      c := l;
      ck := keys.(l)
    end;
    if r < len && keys.(r) < !ck then c := r;
    if !c = !i then moving := false
    else begin
      keys.(!i) <- keys.(!c);
      slots.(!i) <- slots.(!c);
      i := !c
    end
  done;
  keys.(!i) <- key;
  slots.(!i) <- slot

(* Written as a negated [>=] so that a NaN time is refused too: it
   would pass [time < now - 1e-12] and then break the heap order. *)
let schedule t time handler =
  if not (time >= t.clock.now -. 1e-12) then invalid_arg "Event.schedule: time in the past";
  if t.len = Array.length t.keys then grow t;
  let slot = t.slots.(t.len) in
  t.handlers.(slot) <- handler;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) time slot

let schedule_in t dt handler = schedule t (t.clock.now +. dt) handler

(* Removes the earliest event and returns its handler. *)
let pop t =
  let slot = t.slots.(0) in
  let handler = t.handlers.(slot) in
  t.handlers.(slot) <- idle;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t t.keys.(last) t.slots.(last);
  t.slots.(last) <- slot;
  handler

let run ?(until = infinity) t =
  t.stopped <- false;
  let past_until = ref false in
  while not (t.stopped || !past_until || t.len = 0) do
    let time = t.keys.(0) in
    if time > until then past_until := true
    else begin
      t.clock.now <- time;
      let handler = pop t in
      t.processed <- t.processed + 1;
      handler t
    end
  done

let events_processed t = t.processed

let publish_events t =
  Qp_obs.Metrics.add
    (Qp_obs.Metrics.counter ~help:"Discrete events processed by the simulators"
       (Qp_obs.Metrics.current ()) "qp_sim_events_total")
    (float_of_int t.processed)
