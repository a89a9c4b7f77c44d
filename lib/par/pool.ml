(* Fixed-size domain pool. [jobs - 1] worker domains block on a shared
   work queue; the submitting domain drains the same queue while it
   waits for its batch, so a pool of size n keeps n domains busy and
   [jobs = 1] degenerates to plain inline execution with no domains at
   all.

   Determinism contract (see the .mli): results are stored by element
   index, every element runs exactly once, and per-element telemetry
   goes to a fresh lazily-created registry merged into the caller's in
   element order after the join — identical grouping for any worker
   count, so parallel runs reproduce the sequential metric totals
   bit-for-bit for counters and up to float-addition grouping for
   nothing (the grouping itself is fixed). *)

module Metrics = Qp_obs.Metrics

type t = {
  pool_jobs : int;
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  work_cv : Condition.t; (* new work or shutdown *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

(* True while this domain is executing a pool task — workers always,
   the submitting domain while it helps drain the queue. Nested
   [parallel_*] calls check it and fall back to the inline path
   instead of deadlocking on the shared queue. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

(* Context propagation: libraries register a capture hook; at submit
   time every hook runs on the submitting domain to snapshot its
   domain-local context, yielding a wrapper that re-installs the
   snapshot around each element on whichever domain executes it (and
   restores the previous value afterwards). Used by [Qp_lp.Simplex] to
   carry the cooperative-cancellation deadline into worker domains, and
   below for the span context. *)
let context_hooks : (unit -> (unit -> unit) -> unit) list Atomic.t =
  Atomic.make []

let register_context_hook h =
  let rec add () =
    let cur = Atomic.get context_hooks in
    if not (Atomic.compare_and_set context_hooks cur (h :: cur)) then add ()
  in
  add ()

(* Spans opened in a task keep the submitter's open span as parent and
   feed its wide-event root (see [Qp_obs.Span.capture]). *)
let () = register_context_hook Qp_obs.Span.capture

(* Snapshot all registered contexts now; returns a wrapper composing
   them around a thunk. Identity when no hooks are registered. *)
let capture_context () =
  match Atomic.get context_hooks with
  | [] -> fun thunk -> thunk ()
  | hooks ->
      let wrappers = List.rev_map (fun h -> h ()) hooks in
      fun thunk ->
        List.fold_left (fun acc w () -> w acc) thunk wrappers ()

let run_task task =
  let was = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  (* Tasks are wrapped by the submitter and must not raise; the guard
     keeps a violated contract from killing a worker domain. *)
  (try task () with _ -> ());
  Domain.DLS.set in_worker_key was

let rec worker_loop pool =
  Mutex.lock pool.m;
  while Queue.is_empty pool.queue && not pool.stopping do
    Condition.wait pool.work_cv pool.m
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.m (* stopping *)
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.m;
    run_task task;
    worker_loop pool
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      pool_jobs = jobs;
      queue = Queue.create ();
      m = Mutex.create ();
      work_cv = Condition.create ();
      stopping = false;
      domains = [];
    }
  in
  if jobs > 1 then
    pool.domains <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.pool_jobs

let shutdown pool =
  Mutex.lock pool.m;
  pool.stopping <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

(* Run [n] index-addressed elements: each under a fresh lazily-created
   metrics registry installed as the domain-local current registry, so
   concurrent elements never race on shared metric cells. Results and
   exceptions are stored per index; forced registries are merged into
   the caller's registry in index order after the join, and the
   lowest-index exception (if any) is re-raised. *)
let run_indexed pool ~chunk n (f : int -> 'a) : 'a array =
  if n < 0 then invalid_arg "Pool.parallel_init: negative size";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool: chunk must be >= 1"
  | _ -> ());
  if n = 0 then [||]
  else begin
    let parent = Metrics.current () in
    let enabled = Metrics.enabled parent in
    let results : 'a option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let never_forced = lazy (Metrics.create ~enabled:false ()) in
    let regs = Array.make n never_forced in
    let run_element i =
      let reg = lazy (Metrics.create ~enabled ()) in
      regs.(i) <- reg;
      match Metrics.with_current_lazy reg (fun () -> f i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let chunk_size =
      match chunk with
      | Some c -> c
      | None ->
          (* Enough chunks to balance 4 ways per domain, whole range
             when sequential. *)
          if pool.pool_jobs = 1 then n
          else max 1 ((n + (4 * pool.pool_jobs) - 1) / (4 * pool.pool_jobs))
    in
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    if pool.pool_jobs = 1 || in_worker () || n_chunks = 1 then
      (* Inline path: same per-element scoping, no queue. *)
      for i = 0 to n - 1 do
        run_element i
      done
    else begin
      let in_context = capture_context () in
      Mutex.lock pool.m;
      if pool.stopping then begin
        Mutex.unlock pool.m;
        invalid_arg "Pool: submit on a shut-down pool"
      end;
      let remaining = ref n_chunks in
      let done_cv = Condition.create () in
      for c = 0 to n_chunks - 1 do
        let lo = c * chunk_size and hi = min n ((c + 1) * chunk_size) in
        Queue.push
          (fun () ->
            in_context (fun () ->
                for i = lo to hi - 1 do
                  run_element i
                done);
            Mutex.lock pool.m;
            decr remaining;
            if !remaining = 0 then Condition.broadcast done_cv;
            Mutex.unlock pool.m)
          pool.queue
      done;
      Condition.broadcast pool.work_cv;
      (* Help drain the queue until this batch completes. The popped
         task may belong to another batch submitted concurrently;
         running it here is still correct and keeps the queue moving. *)
      let rec drive () =
        if !remaining > 0 then
          if not (Queue.is_empty pool.queue) then begin
            let task = Queue.pop pool.queue in
            Mutex.unlock pool.m;
            run_task task;
            Mutex.lock pool.m;
            drive ()
          end
          else begin
            Condition.wait done_cv pool.m;
            drive ()
          end
      in
      drive ();
      Mutex.unlock pool.m
    end;
    if enabled then
      Array.iter
        (fun l -> if Lazy.is_val l then Metrics.merge ~into:parent (Lazy.force l))
        regs;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_init ?chunk pool n f = run_indexed pool ~chunk n f

let parallel_map ?chunk pool f arr =
  run_indexed pool ~chunk (Array.length arr) (fun i -> f arr.(i))

(* ------------------------------------------------------------------ *)
(* Fire-and-forget submission                                          *)
(* ------------------------------------------------------------------ *)

(* Single-task submission with no join: the caller arranges its own
   completion signalling (qp_serve uses a self-pipe back to its event
   loop). Runs inline when the pool has no worker domains — the
   submitter is then the only executor — or when already inside a pool
   task (same no-deadlock rule as the batch entry points). Captured
   context hooks apply on the queued path. *)
let async pool task =
  if pool.pool_jobs = 1 || in_worker () then run_task task
  else begin
    let in_context = capture_context () in
    Mutex.lock pool.m;
    if pool.stopping then begin
      Mutex.unlock pool.m;
      invalid_arg "Pool: submit on a shut-down pool"
    end;
    Queue.push (fun () -> in_context task) pool.queue;
    Condition.signal pool.work_cv;
    Mutex.unlock pool.m
  end

(* ------------------------------------------------------------------ *)
(* Process-default pool                                                *)
(* ------------------------------------------------------------------ *)

let default_m = Mutex.create ()
let default_pool : t option ref = ref None
let default_jobs_v = ref 1

let set_default_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  let old =
    Mutex.protect default_m (fun () ->
        let old = !default_pool in
        default_pool := None;
        default_jobs_v := jobs;
        old)
  in
  Option.iter shutdown old

let default_jobs () = Mutex.protect default_m (fun () -> !default_jobs_v)

let default () =
  Mutex.protect default_m (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
          let p = create ~jobs:!default_jobs_v in
          default_pool := Some p;
          p)
