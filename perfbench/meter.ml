(* Clock, sample statistics, per-layer timers and the result record
   shared by every workload of the benchmark driver. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The samples of one run, in fixed chunks written as they fill, so the
   driver's resident memory grows by 8 bytes a sample rather than in
   doubling steps. *)
module Samples = struct
  let chunk = 8192

  type t = {
    mutable full : float array list;
    mutable cur : float array;
    mutable fill : int;
    mutable n : int;
  }

  let create () = { full = []; cur = Array.create_float chunk; fill = 0; n = 0 }

  let add t x =
    if t.fill = chunk then begin
      t.full <- t.cur :: t.full;
      t.cur <- Array.create_float chunk;
      t.fill <- 0
    end;
    t.cur.(t.fill) <- x;
    t.fill <- t.fill + 1;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.concat (List.rev (Array.sub t.cur 0 t.fill :: t.full))
end

(* Linear interpolation between order statistics of a sorted array,
   [p] in [0, 100]. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else begin
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = truncate r in
    let j = min (n - 1) (i + 1) in
    s.(i) +. ((r -. float_of_int i) *. (s.(j) -. s.(i)))
  end

let percentile xs p =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  percentile_sorted s p

let median xs = percentile xs 50.

let mean xs =
  if Array.length xs = 0 then Float.nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Peak resident set of process [pid] ("self" for this one) in MB, the
   kernel's high-water mark VmHWM from /proc/PID/status. *)
let peak_rss_mb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match Scanf.sscanf_opt (input_line ic) "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ()
      in
      scan ())

(* Host speed. The host's CPU speed drifts by up to ±25% over minutes
   and flips between fast and slow phases within a second (frequency
   and co-tenant load), and every timed operation drifts with it. A
   fixed loop owned by the benchmark -- integer sorting, float dot
   products, a random pointer chase over preallocated arrays, and some
   short-lived allocation -- runs every [interval] seconds between
   operations. After the run, each operation's time is scaled by
   [reference] over the median of the [window] loop times nearest to it
   in time, before and after: it is reported at the speed where the
   loop takes [reference] seconds. A window centred on the operation
   follows a change of phase at once; a trailing one lags it by half a
   window and scales the operations of the change the wrong way.

   So that the loop's time follows the host and not the program, each
   sample runs the loop once untimed (its data back in cache after the
   operation evicted it), then empties the minor heap, and only then
   times a second pass: that pass's allocation fits in the empty minor
   heap, so no collection -- and no work on the program's heap -- lands
   in it. The unscaled figures are reported beside the scaled ones. *)
module Host = struct
  let reference = 0.00065
  let interval = 0.02
  let window = 5
  let at = Samples.create () (* end time of each loop sample *)
  let all = Samples.create () (* its duration *)
  let last = ref Float.neg_infinity
  let sink = ref 0
  let n = 2048
  let template = Array.init n (fun i -> ((i * 7919) + 13) land 0xFFFFF)
  let keys = Array.make n 0
  let next = Array.init n (fun i -> ((i * 2654435761) + 1) land (n - 1))
  let mat = Array.init 64 (fun i -> Array.init 64 (fun j -> float_of_int (i * j mod 17)))
  let v = Array.make 64 1.
  let w = Array.make 64 0.

  let work () =
    Array.blit template 0 keys 0 n;
    Array.sort Int.compare keys;
    for _ = 1 to 4 do
      for i = 0 to 63 do
        let row = mat.(i) and s = ref 0. in
        for j = 0 to 63 do
          s := !s +. (row.(j) *. v.(j))
        done;
        w.(i) <- !s /. 1000.
      done;
      Array.blit w 0 v 0 64
    done;
    let p = ref 0 in
    for _ = 1 to 16 * n do
      p := next.(!p)
    done;
    (* short-lived allocation, as the workloads' own values are *)
    let l = ref [] in
    for i = 1 to n do
      l := (float_of_int i *. 0.5, i) :: !l;
      if i land 63 = 0 then l := []
    done;
    let h = Hashtbl.create 16 in
    for i = 0 to n do
      Hashtbl.replace h (i land 255) (float_of_int i)
    done;
    sink := !sink + keys.(n / 2) + !p + truncate v.(0) + List.length !l + Hashtbl.length h

  let sample () =
    work ();
    Gc.minor ();
    let t0 = now () in
    work ();
    let t1 = now () in
    Samples.add at t1;
    Samples.add all (t1 -. t0);
    last := t1

  (* Take [k] samples (a window by default); call before the first
     timed operation. *)
  let prime ?(k = window) () =
    for _ = 1 to k do
      sample ()
    done

  let tick () = if now () -. !last >= interval then sample ()

  (* Take a last window of samples, then return the map from the time
     of an operation to the factor that brings it to reference speed. *)
  let scaler () =
    prime ();
    let at = Samples.to_array at and all = Samples.to_array all in
    let k = Array.length at in
    fun t ->
      (* first sample at or after [t] *)
      let rec first lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if at.(mid) < t then first (mid + 1) hi else first lo mid
      in
      let i = first 0 k in
      let lo = max 0 (min (k - window) (i - (window / 2))) in
      let xs = Array.sub all lo (min window k) in
      Array.sort Float.compare xs;
      reference /. xs.(Array.length xs / 2)
end

(* Per-layer time and work accumulated over the traced operations of a
   run: each entry is the total seconds (or count) across traced ops. *)
module Layers = struct
  type entry = { mutable total : float; mutable calls : int }
  type t = (string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    match Hashtbl.find_opt t name with
    | Some e ->
        e.total <- e.total +. v;
        e.calls <- e.calls + 1
    | None -> Hashtbl.add t name { total = v; calls = 1 }

  let get (t : t) name =
    match Hashtbl.find_opt t name with Some e -> e.total | None -> 0.

  let calls (t : t) name =
    match Hashtbl.find_opt t name with Some e -> e.calls | None -> 0

  (* Time [f] into layer [name]. *)
  let time t name f =
    let r, dt = timed f in
    add t name dt;
    r
end

(* Exact work counters of one operation (pivots, search nodes, ...). *)
type counters = (string * int) list

type verdict = {
  ok : bool;
  why : string; (* first failed check, "" when ok *)
  ratio : float option; (* objective / certified lower bound *)
  counters : counters;
}

let pass ?ratio ?(counters = []) () = { ok = true; why = ""; ratio; counters }

let fail why = { ok = false; why; ratio = None; counters = [] }

(* An operation of a workload's seeded stream. [run] performs the timed
   work and returns the check, which runs outside the timed region;
   [traced] performs the same work with each layer call timed. *)
type op = {
  run : unit -> unit -> verdict;
  traced : Layers.t -> unit -> verdict;
}

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let json_string s = Qp_obs.Json.to_string (Qp_obs.Json.String s)

(* Values keep all their digits; a non-finite value (a layer with no
   samples) prints as 0. *)
let json_of_metrics ms =
  let f v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"samples\": %d}"
             (json_string m.name) (f m.value) (json_string m.unit_) m.samples)
         ms)
  ^ "}"
