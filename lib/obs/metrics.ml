(* Metrics registry: counters, gauges and fixed-bucket histograms with
   Prometheus-text and JSON exporters.

   Every mutation is gated on the owning registry's [enabled] flag, so
   an instrumented hot path costs one load + branch when telemetry is
   off. Series identity is (name, sorted labels); re-registering an
   existing series returns the same handle (get-or-create), and
   registering the same name with a different kind or different
   histogram buckets is an error. *)

type hist = {
  bounds : float array; (* strictly increasing upper bucket bounds *)
  counts : int array; (* length = Array.length bounds + 1 (+Inf last) *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_min : float;
  mutable h_max : float;
}

type cell = Counter of float ref | Gauge of float ref | Hist of hist

type series = {
  s_name : string;
  s_labels : (string * string) list; (* sorted by key *)
  s_help : string;
  cell : cell;
}

type t = {
  tbl : (string, series) Hashtbl.t; (* key = name + rendered labels *)
  mutable rev_keys : string list; (* registration order, reversed *)
  enabled : bool ref;
}

type counter = { c_on : bool ref; c : float ref }
type gauge = { g_on : bool ref; g : float ref }
type histogram = { h_on : bool ref; h : hist }

let create ?(enabled = true) () =
  { tbl = Hashtbl.create 64; rev_keys = []; enabled = ref enabled }

(* Shared process-wide registry used by library instrumentation; starts
   disabled so uninstrumented runs pay only the flag check. *)
let default = create ~enabled:false ()

(* The registry instrumentation writes to: a domain-local override
   installed by [with_current]/[with_current_lazy] (the parallel pool
   scopes every element in one, and the bench driver scopes each
   experiment), falling back to [default]. Held lazily so scoping a
   region that never touches a metric allocates nothing. *)
let current_key : t Lazy.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Lazy.from_val default)

let current () = Lazy.force (Domain.DLS.get current_key)

let with_current_lazy reg f =
  let old = Domain.DLS.get current_key in
  Domain.DLS.set current_key reg;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key old) f

let with_current reg f = with_current_lazy (Lazy.from_val reg) f

let set_enabled t b = t.enabled := b
let enabled t = !(t.enabled)

let valid_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  match labels with
  | [] -> name
  | ls ->
      let b = Buffer.create 32 in
      Buffer.add_string b name;
      Buffer.add_char b '{';
      List.iter
        (fun (k, v) ->
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b v;
          Buffer.add_char b ';')
        ls;
      Buffer.add_char b '}';
      Buffer.contents b

let register t ~name ~labels ~help ~make ~check =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  let labels = canonical_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some s -> check s
  | None ->
      let s = { s_name = name; s_labels = labels; s_help = help; cell = make () } in
      Hashtbl.add t.tbl k s;
      t.rev_keys <- k :: t.rev_keys;
      check s

let remove ?(labels = []) t name =
  let k = key name (canonical_labels labels) in
  if Hashtbl.mem t.tbl k then begin
    Hashtbl.remove t.tbl k;
    t.rev_keys <- List.filter (fun k' -> k' <> k) t.rev_keys
  end

let counter ?(help = "") ?(labels = []) t name =
  register t ~name ~labels ~help
    ~make:(fun () -> Counter (ref 0.))
    ~check:(fun s ->
      match s.cell with
      | Counter c -> { c_on = t.enabled; c }
      | _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a counter" name))

let gauge ?(help = "") ?(labels = []) t name =
  register t ~name ~labels ~help
    ~make:(fun () -> Gauge (ref 0.))
    ~check:(fun s ->
      match s.cell with
      | Gauge g -> { g_on = t.enabled; g }
      | _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a gauge" name))

(* Log-spaced bucket bounds: lo, lo*factor, ..., count bounds total. *)
let log_buckets ~lo ~factor ~count =
  if lo <= 0. || not (Float.is_finite lo) then
    invalid_arg "Metrics.log_buckets: lo must be positive and finite";
  if factor <= 1. || not (Float.is_finite factor) then
    invalid_arg "Metrics.log_buckets: factor must exceed 1";
  if count < 1 then invalid_arg "Metrics.log_buckets: count must be >= 1";
  Array.init count (fun i -> lo *. (factor ** float_of_int i))

(* Default delay buckets: 2x-spaced from 1e-3 to ~8e3 — wide enough for
   both unit-metric network delays and wall-clock seconds. *)
let default_buckets = log_buckets ~lo:1e-3 ~factor:2. ~count:24

let validate_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket bounds";
  for i = 0 to n - 1 do
    if not (Float.is_finite bounds.(i)) then
      invalid_arg "Metrics.histogram: bounds must be finite";
    if i > 0 && bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must be strictly increasing"
  done

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) t name =
  validate_bounds buckets;
  let bounds = Array.copy buckets in
  register t ~name ~labels ~help
    ~make:(fun () ->
      Hist
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.;
          h_count = 0;
          h_min = infinity;
          h_max = neg_infinity;
        })
    ~check:(fun s ->
      match s.cell with
      | Hist h ->
          if h.bounds <> bounds then
            invalid_arg
              (Printf.sprintf "Metrics: %s re-registered with different buckets" name);
          { h_on = t.enabled; h }
      | _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a histogram" name))

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let add cnt v =
  if !(cnt.c_on) then begin
    if v < 0. || not (Float.is_finite v) then
      invalid_arg "Metrics.add: counters only accept finite non-negative increments";
    cnt.c := !(cnt.c) +. v
  end

let inc cnt = add cnt 1.

let set gg v = if !(gg.g_on) then gg.g := v

(* First bucket whose bound is >= v (Prometheus [le] semantics: bounds
   are inclusive upper edges); the overflow bucket otherwise. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  if v <= bounds.(0) then 0
  else if v > bounds.(n - 1) then n
  else begin
    (* Binary search: smallest i with v <= bounds.(i). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let observe hg v =
  if !(hg.h_on) then begin
    if not (Float.is_finite v) then
      invalid_arg "Metrics.observe: non-finite observation";
    let h = hg.h in
    let b = bucket_index h.bounds v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_count <- h.h_count + 1;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

let counter_value cnt = !(cnt.c)
let gauge_value gg = !(gg.g)
let hist_count hg = hg.h.h_count
let hist_sum hg = hg.h.h_sum
let hist_bucket_counts hg = Array.copy hg.h.counts
let hist_bounds hg = Array.copy hg.h.bounds

(* Estimated value of the (0-based) i-th order statistic: locate its
   bucket by cumulative count and place it at the observation's
   mid-rank position assuming a uniform spread inside the bucket. The
   estimate always lies inside the bucket that really contains the
   order statistic (tightened by the tracked min/max). *)
let order_stat h i =
  let nb = Array.length h.counts in
  let rec find b cum =
    let cum' = cum + h.counts.(b) in
    if i < cum' || b = nb - 1 then (b, cum) else find (b + 1) cum'
  in
  let b, before = find 0 0 in
  let lo =
    if b = 0 then h.h_min else Float.max h.h_min h.bounds.(b - 1)
  in
  let hi =
    if b = Array.length h.bounds then h.h_max else Float.min h.h_max h.bounds.(b)
  in
  if h.counts.(b) = 0 then lo
  else lo +. ((hi -. lo) *. ((float_of_int (i - before) +. 0.5) /. float_of_int h.counts.(b)))

let quantile hg q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile: q must lie in [0, 1]";
  let h = hg.h in
  if h.h_count = 0 then invalid_arg "Metrics.quantile: empty histogram";
  if h.h_count = 1 then h.h_min
  else begin
    let rank = q *. float_of_int (h.h_count - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (h.h_count - 1) in
    let frac = rank -. float_of_int lo in
    let vlo = order_stat h lo in
    let vhi = if hi = lo then vlo else order_stat h hi in
    (vlo *. (1. -. frac)) +. (vhi *. frac)
  end

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

let merge_histogram ~into src =
  let a = into.h and b = src.h in
  if a.bounds <> b.bounds then
    invalid_arg "Metrics.merge_histogram: bucket bounds differ";
  Array.iteri (fun i c -> a.counts.(i) <- a.counts.(i) + c) b.counts;
  a.h_sum <- a.h_sum +. b.h_sum;
  a.h_count <- a.h_count + b.h_count;
  if b.h_min < a.h_min then a.h_min <- b.h_min;
  if b.h_max > a.h_max then a.h_max <- b.h_max

let ordered_series t =
  List.rev_map (fun k -> Hashtbl.find t.tbl k) t.rev_keys

let merge ~into src =
  List.iter
    (fun s ->
      match s.cell with
      | Counter c ->
          let dst = counter ~help:s.s_help ~labels:s.s_labels into s.s_name in
          dst.c := !(dst.c) +. !c
      | Gauge g ->
          let dst = gauge ~help:s.s_help ~labels:s.s_labels into s.s_name in
          dst.g := !g
      | Hist h ->
          let dst =
            histogram ~help:s.s_help ~labels:s.s_labels ~buckets:h.bounds into s.s_name
          in
          merge_histogram ~into:dst { h_on = into.enabled; h })
    (ordered_series src)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* Scalar view (counters and gauges; histograms contribute _count and
   _sum), used by the bench driver for per-experiment deltas. *)
let scalar_series t =
  List.concat_map
    (fun s ->
      let k = key s.s_name s.s_labels in
      match s.cell with
      | Counter c -> [ (k, !c) ]
      | Gauge g -> [ (k, !g) ]
      | Hist h ->
          [
            (key (s.s_name ^ "_count") s.s_labels, float_of_int h.h_count);
            (key (s.s_name ^ "_sum") s.s_labels, h.h_sum);
          ])
    (ordered_series t)

let prom_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else
    (* Shortest representation that round-trips, like the JSON writer. *)
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let escape_label_value s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) ls)
      ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  let header name kind help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun s ->
      match s.cell with
      | Counter c ->
          header s.s_name "counter" s.s_help;
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.s_name (render_labels s.s_labels)
               (prom_value !c))
      | Gauge g ->
          header s.s_name "gauge" s.s_help;
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.s_name (render_labels s.s_labels)
               (prom_value !g))
      | Hist h ->
          header s.s_name "histogram" s.s_help;
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i = Array.length h.bounds then "+Inf"
                else prom_value h.bounds.(i)
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                   (render_labels (s.s_labels @ [ ("le", le) ]))
                   !cum))
            h.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.s_name (render_labels s.s_labels)
               (prom_value h.h_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.s_name (render_labels s.s_labels)
               h.h_count))
    (ordered_series t);
  Buffer.contents buf

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let to_json t =
  let series =
    List.map
      (fun s ->
        let base =
          [ ("name", Json.String s.s_name); ("labels", labels_json s.s_labels) ]
        in
        match s.cell with
        | Counter c ->
            Json.Obj (base @ [ ("type", Json.String "counter"); ("value", Json.Float !c) ])
        | Gauge g ->
            Json.Obj (base @ [ ("type", Json.String "gauge"); ("value", Json.Float !g) ])
        | Hist h ->
            let buckets =
              List.init (Array.length h.counts) (fun i ->
                  Json.Obj
                    [
                      ( "le",
                        if i = Array.length h.bounds then Json.String "+Inf"
                        else Json.Float h.bounds.(i) );
                      ("count", Json.Int h.counts.(i));
                    ])
            in
            Json.Obj
              (base
              @ [
                  ("type", Json.String "histogram");
                  ("buckets", Json.List buckets);
                  ("sum", Json.Float h.h_sum);
                  ("count", Json.Int h.h_count);
                  ( "min",
                    if h.h_count = 0 then Json.Null else Json.Float h.h_min );
                  ( "max",
                    if h.h_count = 0 then Json.Null else Json.Float h.h_max );
                ]))
      (ordered_series t)
  in
  Json.Obj [ ("metrics", Json.List series) ]
