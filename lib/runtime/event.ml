module Heap = Qp_graph.Heap

(* The clock sits in an all-float record, stored flat, so advancing it
   does not box a float per event. *)
type clock = { mutable now : float }

type t = {
  queue : (t -> unit) Heap.t;
  clock : clock;
  mutable processed : int;
  mutable stopped : bool;
}

let create () =
  { queue = Heap.create (); clock = { now = 0. }; processed = 0; stopped = false }

let stop t = t.stopped <- true

let now t = t.clock.now

let schedule t time handler =
  if time < t.clock.now -. 1e-12 then invalid_arg "Event.schedule: time in the past";
  Heap.push t.queue time handler

let schedule_in t dt handler = schedule t (t.clock.now +. dt) handler

let run ?(until = infinity) t =
  t.stopped <- false;
  let q = t.queue and past_until = ref false in
  while not (t.stopped || !past_until || Heap.is_empty q) do
    let time = Heap.min_key q in
    if time > until then past_until := true
    else begin
      t.clock.now <- time;
      let handler = Heap.pop q in
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
