(* Telemetry layer: JSON round-trips, metrics registry semantics,
   histogram quantiles vs the exact Stats.percentile, span
   nesting/ordering through the memory sink, Prometheus escaping, the
   disabled-path no-ops, wide-event sampling/ring/record shape, SLO
   burn-rate windows, and whole-line sink atomicity when records are
   emitted from pool worker domains. *)

module Json = Qp_obs.Json
module Metrics = Qp_obs.Metrics
module Trace = Qp_obs.Trace
module Span = Qp_obs.Span
module Core = Qp_obs.Core
module Wide = Qp_obs.Wide
module Slo = Qp_obs.Slo
module Pool = Qp_par.Pool
module Stats = Qp_util.Stats
module Rng = Qp_util.Rng

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("null", Json.Null); ("yes", Json.Bool true); ("int", Json.Int (-42));
        ("float", Json.Float 0.1); ("tiny", Json.Float 1.3113021850585938e-05);
        ("str", Json.String "quote \" backslash \\ newline \n tab \t caf\xc3\xa9");
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.Obj [] ]) ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.of_string (Json.to_string v) = v)

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | v -> Alcotest.failf "parsed %S as %s" s (Json.to_string v))
    [ "{bad"; "[1,"; "\"unterminated"; "1 2"; ""; "nul" ]

(* The float writer as it was, on Printf: [Json.to_string] must write
   every float with exactly these bytes. *)
let printf_float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Bit patterns of every class: any 64 bits (NaNs and infinities
   among them), subnormals, ±0, the lowest and highest exponents,
   integral values, and decimals of 1–17 significant digits, which
   take the %.12g branch up to 12 digits and the %.17g one past it. *)
let float_bits_gen =
  let open QCheck.Gen in
  let sign = map (fun neg -> if neg then Int64.min_int else 0L) bool in
  let mantissa = map (fun m -> Int64.logand m 0xF_FFFF_FFFF_FFFFL) ui64 in
  let with_exponent e =
    map3
      (fun s e m -> Int64.logor s (Int64.logor (Int64.shift_left (Int64.of_int e) 52) m))
      sign e mantissa
  in
  frequency
    [ (3, ui64);
      (2, with_exponent (return 0));
      (1, sign);
      (2, with_exponent (int_range 1 40));
      (2, with_exponent (int_range 0x7D6 0x7FE));
      ( 2,
        map Int64.bits_of_float
          (oneof
             [ map float_of_int (int_range (-1_000_000) 1_000_000);
               map (fun k -> ldexp 1. k) (int_range (-1074) 1023);
               map2 (fun i k -> float_of_int i *. (10. ** float_of_int k))
                 (int_range (-99999) 99999) (int_range 0 300) ]) );
      ( 3,
        map2
          (fun digits f ->
            Int64.bits_of_float (float_of_string (Printf.sprintf "%.*g" digits f)))
          (int_range 1 17)
          (map Int64.float_of_bits ui64) ) ]

let prop_float_repr_matches_printf =
  QCheck.Test.make ~name:"float writer = Printf %.12g/%.17g" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%Lx") float_bits_gen)
    (fun bits ->
      let f = Int64.float_of_bits bits in
      Json.to_string (Json.Float f) = printf_float_repr f)

let test_json_accessors () =
  let v = Json.of_string {|{"a": 3, "b": 2.5, "c": "x"}|} in
  Alcotest.(check (option int)) "int" (Some 3) Option.(bind (Json.member "a" v) Json.to_int);
  Alcotest.(check bool) "widen" true
    (Option.(bind (Json.member "a" v) Json.to_float) = Some 3.);
  Alcotest.(check bool) "float" true
    (Option.(bind (Json.member "b" v) Json.to_float) = Some 2.5);
  Alcotest.(check (option string)) "str" (Some "x")
    Option.(bind (Json.member "c" v) Json.to_str);
  Alcotest.(check bool) "missing" true (Json.member "zz" v = None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let r = Metrics.create () in
  let c = Metrics.counter r "qp_test_total" in
  let g = Metrics.gauge r "qp_test_gauge" in
  Metrics.inc c;
  Metrics.add c 2.5;
  Metrics.set g 7.;
  Metrics.set g (-3.);
  Alcotest.(check (float 1e-12)) "counter" 3.5 (Metrics.counter_value c);
  Alcotest.(check (float 1e-12)) "gauge" (-3.) (Metrics.gauge_value g);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: counters only accept finite non-negative increments")
    (fun () -> Metrics.add c (-1.));
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: qp_test_total is not a gauge") (fun () ->
      ignore (Metrics.gauge r "qp_test_total"));
  Alcotest.check_raises "invalid name"
    (Invalid_argument "Metrics: invalid metric name \"0bad name\"") (fun () ->
      ignore (Metrics.counter r "0bad name"))

let test_remove_series () =
  let r = Metrics.create () in
  let c epoch = Metrics.counter ~labels:[ ("epoch", epoch) ] r "qp_test_total" in
  Metrics.inc (c "1");
  Metrics.inc (c "2");
  Metrics.remove ~labels:[ ("epoch", "1") ] r "qp_test_total";
  Metrics.remove ~labels:[ ("epoch", "9") ] r "qp_test_total";
  Alcotest.(check (list string)) "only epoch 2 is left" [ {|qp_test_total{epoch=2;}|} ]
    (List.map fst (Metrics.scalar_series r));
  Alcotest.(check (float 0.)) "a removed series starts afresh" 0.
    (Metrics.counter_value (c "1"))

let test_bucket_boundaries () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1. ~factor:2. ~count:4) r "h"
  in
  Alcotest.(check bool) "bounds" true (Metrics.hist_bounds h = [| 1.; 2.; 4.; 8. |]);
  (* Upper bounds are inclusive (Prometheus le semantics); values past
     the last bound land in the overflow bucket. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 2.1; 8.0; 9.0 ];
  Alcotest.(check bool) "per-bucket counts" true
    (Metrics.hist_bucket_counts h = [| 2; 2; 1; 1; 1 |]);
  Alcotest.(check int) "count" 7 (Metrics.hist_count h);
  Alcotest.check_raises "non-finite observation"
    (Invalid_argument "Metrics.observe: non-finite observation") (fun () ->
      Metrics.observe h Float.nan)

(* First bucket (le-inclusive) that contains [v]. *)
let bucket_of bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

(* The quantile estimate interpolates between per-order-statistic
   estimates, each guaranteed to lie in its true order statistic's
   bucket — so the estimate for quantile q must land between the lower
   edge of the bucket holding order statistic floor(q*(n-1)) and the
   upper edge of the bucket holding order statistic ceil(q*(n-1)),
   clamped by the tracked min/max. *)
let test_quantile_brackets_percentile () =
  let rng = Rng.create 7 in
  let bounds = Metrics.log_buckets ~lo:0.01 ~factor:2. ~count:16 in
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:bounds r "h" in
  let xs = Array.init 400 (fun _ -> Rng.uniform rng *. 80.) in
  Array.iter (Metrics.observe h) xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  List.iter
    (fun q ->
      let est = Metrics.quantile h q in
      let rank = q *. float_of_int (n - 1) in
      let lo_stat = sorted.(int_of_float (Float.floor rank)) in
      let hi_stat = sorted.(int_of_float (Float.ceil rank)) in
      let lo_edge =
        let b = bucket_of bounds lo_stat in
        Float.max sorted.(0) (if b = 0 then Float.neg_infinity else bounds.(b - 1))
      in
      let hi_edge =
        let b = bucket_of bounds hi_stat in
        Float.min sorted.(n - 1)
          (if b = Array.length bounds then Float.infinity else bounds.(b))
      in
      if not (est >= lo_edge -. 1e-9 && est <= hi_edge +. 1e-9) then
        Alcotest.failf "q=%.2f: estimate %g outside [%g, %g] (exact %g)" q est lo_edge
          hi_edge
          (Stats.percentile xs (100. *. q)))
    [ 0.; 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ]

let test_quantile_degenerate () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  Alcotest.check_raises "empty" (Invalid_argument "Metrics.quantile: empty histogram")
    (fun () -> ignore (Metrics.quantile h 0.5));
  Metrics.observe h 3.25;
  Alcotest.(check (float 1e-12)) "single q=0.5" 3.25 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-12)) "single q=1" 3.25 (Metrics.quantile h 1.)

let test_histogram_merge () =
  let r = Metrics.create () in
  let bounds = Metrics.log_buckets ~lo:0.1 ~factor:4. ~count:6 in
  let a = Metrics.histogram ~buckets:bounds r "a" in
  let b = Metrics.histogram ~buckets:bounds r "b" in
  let combined = Metrics.histogram ~buckets:bounds r "combined" in
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let x = Rng.uniform rng *. 30. in
    Metrics.observe (if Rng.uniform rng < 0.5 then a else b) x;
    Metrics.observe combined x
  done;
  Metrics.merge_histogram ~into:a b;
  Alcotest.(check bool) "bucket counts" true
    (Metrics.hist_bucket_counts a = Metrics.hist_bucket_counts combined);
  Alcotest.(check int) "count" (Metrics.hist_count combined) (Metrics.hist_count a);
  Alcotest.(check (float 1e-9)) "sum" (Metrics.hist_sum combined) (Metrics.hist_sum a);
  Alcotest.(check (float 1e-9)) "same quantiles" (Metrics.quantile combined 0.9)
    (Metrics.quantile a 0.9);
  let other = Metrics.histogram r "other" in
  Alcotest.check_raises "bucket mismatch"
    (Invalid_argument "Metrics.merge_histogram: bucket bounds differ") (fun () ->
      Metrics.merge_histogram ~into:a other)

let test_disabled_registry_noop () =
  let r = Metrics.create ~enabled:false () in
  let c = Metrics.counter r "c" in
  let g = Metrics.gauge r "g" in
  let h = Metrics.histogram r "h" in
  Metrics.inc c;
  Metrics.add c (-5.) (* not even validated when disabled *);
  Metrics.set g 9.;
  Metrics.observe h Float.nan;
  Alcotest.(check (float 0.)) "counter untouched" 0. (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Metrics.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.hist_count h);
  Metrics.set_enabled r true;
  Metrics.inc c;
  Alcotest.(check (float 0.)) "enabled counts" 1. (Metrics.counter_value c)

let test_prometheus_text () =
  let r = Metrics.create () in
  let c =
    Metrics.counter ~help:"Help text"
      ~labels:[ ("path", "a\\b \"c\"\nd") ]
      r "qp_esc_total"
  in
  Metrics.inc c;
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] r "qp_h" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 5. ];
  let text = Metrics.to_prometheus r in
  Alcotest.(check bool) "help" true (contains text "# HELP qp_esc_total Help text");
  Alcotest.(check bool) "type" true (contains text "# TYPE qp_esc_total counter");
  Alcotest.(check bool) "escaped label" true
    (contains text {|path="a\\b \"c\"\nd"|});
  Alcotest.(check bool) "cumulative buckets" true
    (contains text "qp_h_bucket{le=\"1\"} 1"
    && contains text "qp_h_bucket{le=\"2\"} 2"
    && contains text "qp_h_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "sum and count" true
    (contains text "qp_h_sum 7" && contains text "qp_h_count 3")

(* ------------------------------------------------------------------ *)
(* Trace / Span                                                        *)
(* ------------------------------------------------------------------ *)

(* Install a memory sink in [slot] and a clock that steps by 1 s per
   read. *)
let with_fake_clock_and_sink ?(slot = Trace.spans) f =
  let sink, read = Trace.memory () in
  let tick = ref 0. in
  Core.set_clock (fun () ->
      tick := !tick +. 1.;
      !tick);
  Fun.protect
    ~finally:(fun () ->
      Trace.uninstall slot;
      Core.default_clock ())
    (fun () ->
      Trace.install slot sink;
      f read)

let get_int key record =
  match Option.bind (Json.member key record) Json.to_int with
  | Some i -> i
  | None -> Alcotest.failf "missing int field %s in %s" key (Json.to_string record)

let get_str key record =
  match Option.bind (Json.member key record) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %s in %s" key (Json.to_string record)

let test_span_nesting_and_order () =
  with_fake_clock_and_sink @@ fun read ->
  Trace.header Trace.spans [ ("seed", Json.Int 42) ];
  let result =
    Span.with_ "outer" ~attrs:[ ("phase", Json.String "test") ] @@ fun () ->
    Alcotest.(check bool) "current id" true (Span.current_id () <> None);
    Span.event "ping" ~attrs:[ ("k", Json.Int 1) ];
    Span.add_attr "extra" (Json.Bool true);
    let x = Span.with_ "inner" (fun () -> 21) in
    2 * x
  in
  Alcotest.(check int) "result" 42 result;
  match read () with
  | [ meta; ping; inner; outer ] ->
      Alcotest.(check string) "meta type" "meta" (get_str "type" meta);
      Alcotest.(check string) "schema" "qp-trace/1" (get_str "schema" meta);
      Alcotest.(check int) "meta seed" 42 (get_int "seed" meta);
      (* Children and events land before their parent (end-time order);
         the tree is rebuilt from id/parent. *)
      let outer_id = get_int "id" outer in
      Alcotest.(check string) "outer name" "outer" (get_str "name" outer);
      Alcotest.(check int) "outer depth" 0 (get_int "depth" outer);
      Alcotest.(check bool) "outer is root" true (Json.member "parent" outer = Some Json.Null);
      Alcotest.(check string) "event name" "ping" (get_str "name" ping);
      Alcotest.(check int) "event links span" outer_id (get_int "span" ping);
      Alcotest.(check string) "inner name" "inner" (get_str "name" inner);
      Alcotest.(check int) "inner parent" outer_id (get_int "parent" inner);
      Alcotest.(check int) "inner depth" 1 (get_int "depth" inner);
      let time key r = Option.get (Option.bind (Json.member key r) Json.to_float) in
      Alcotest.(check bool) "fake clock ordering" true
        (time "t_start" outer < time "t_start" inner
        && time "t_start" inner < time "t_end" inner
        && time "t_end" inner < time "t_end" outer);
      let attrs = Option.get (Json.member "attrs" outer) in
      Alcotest.(check bool) "declared attr" true
        (Option.bind (Json.member "phase" attrs) Json.to_str = Some "test");
      Alcotest.(check bool) "added attr" true
        (Json.member "extra" attrs = Some (Json.Bool true))
  | records -> Alcotest.failf "expected 4 records, got %d" (List.length records)

let test_span_exception () =
  with_fake_clock_and_sink @@ fun read ->
  (try Span.with_ "boom" (fun () -> failwith "expected") with Failure _ -> ());
  match read () with
  | [ record ] ->
      Alcotest.(check string) "name" "boom" (get_str "name" record);
      Alcotest.(check bool) "error recorded" true (Json.member "error" record <> None)
  | records -> Alcotest.failf "expected 1 record, got %d" (List.length records)

let test_tracing_off_noop () =
  Trace.uninstall Trace.spans;
  Alcotest.(check bool) "inactive" false (Trace.active Trace.spans);
  let ran = ref false in
  let v =
    Span.with_ "ghost" (fun () ->
        ran := true;
        Alcotest.(check bool) "no current span" true (Span.current_id () = None);
        Span.event "ghost-event";
        Span.add_attr "ignored" Json.Null;
        17)
  in
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "value through" 17 v

let test_jsonl_file_sink () =
  let path = Filename.temp_file "qp_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.install Trace.spans (Trace.to_file path);
  Trace.header Trace.spans [ ("run", Json.String "test") ];
  Span.with_ "a" (fun () -> Span.with_ "b" ignore);
  Trace.uninstall Trace.spans;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let records = List.rev_map Json.of_string !lines in
  Alcotest.(check int) "one record per line" 3 (List.length records);
  Alcotest.(check string) "meta first" "meta" (get_str "type" (List.hd records));
  Alcotest.(check bool) "spans follow" true
    (List.for_all (fun r -> get_str "type" r = "span") (List.tl records))

(* ------------------------------------------------------------------ *)
(* Wide events                                                         *)
(* ------------------------------------------------------------------ *)

let with_wide f =
  let sink, read = Trace.memory () in
  Fun.protect
    ~finally:(fun () -> Trace.uninstall Trace.wide)
    (fun () ->
      Trace.install Trace.wide sink;
      f read)

let test_wide_record_shape () =
  with_wide @@ fun read ->
  Trace.header Trace.wide [ ("run", Json.String "test") ];
  let ev = Wide.start ~kind:"unit" ~trace_id:"t-1" ~parent_span:"s-9" () in
  Wide.set_str ev "verb" "solve";
  Wide.set_int ev "queue_depth" 3;
  Wide.phase ev "parse" 0.25;
  let v = Wide.within ev (fun () -> Span.with_ "work" (fun () -> 21 * 2)) in
  Alcotest.(check int) "within passes value" 42 v;
  Wide.finish ~outcome:"overloaded" ev;
  Wide.finish ev;
  (* idempotent: second finish emits nothing *)
  match read () with
  | [ meta; record ] ->
      Alcotest.(check string) "meta type" "meta" (get_str "type" meta);
      Alcotest.(check string) "schema" "qp-wide/1" (get_str "schema" meta);
      Alcotest.(check string) "meta field" "test" (get_str "run" meta);
      Alcotest.(check string) "type" "wide" (get_str "type" record);
      Alcotest.(check string) "kind" "unit" (get_str "kind" record);
      Alcotest.(check string) "trace id" "t-1" (get_str "trace_id" record);
      Alcotest.(check string) "parent span" "s-9" (get_str "parent_span" record);
      Alcotest.(check string) "outcome" "overloaded" (get_str "outcome" record);
      Alcotest.(check bool) "duration" true (Json.member "dur_s" record <> None);
      Alcotest.(check string) "attr str" "solve" (get_str "verb" record);
      Alcotest.(check int) "attr int" 3 (get_int "queue_depth" record);
      let phases = Option.get (Json.member "phases" record) in
      Alcotest.(check bool) "explicit phase" true
        (Option.bind (Json.member "parse" phases) Json.to_float = Some 0.25);
      Alcotest.(check bool) "span phase" true
        (match Option.bind (Json.member "work" phases) Json.to_float with
        | Some d -> d >= 0.
        | None -> false)
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let test_wide_off_noop () =
  (* a sink that was installed and removed again must see nothing *)
  let sink, read = Trace.memory () in
  Trace.install Trace.wide sink;
  Trace.uninstall Trace.wide;
  Alcotest.(check bool) "inactive" false (Trace.active Trace.wide);
  let ev = Wide.start ~kind:"ghost" () in
  Wide.set ev "k" Json.Null;
  Wide.phase ev "p" 1.;
  let v = Wide.within ev (fun () -> Span.with_ "t" (fun () -> 7)) in
  Wide.finish ev;
  Trace.header Trace.wide [];
  Alcotest.(check int) "value through" 7 v;
  Alcotest.(check int) "nothing emitted" 0 (List.length (read ()))

(* Spans under a root roll up into dotted phases: nested spans by path,
   repeated spans summed, explicit phases summed too. A wide sink alone
   is enough, and the phase keys come out sorted. *)
let test_wide_span_phases () =
  with_fake_clock_and_sink ~slot:Trace.wide @@ fun read ->
  let ev = Wide.start ~kind:"unit" () in
  Wide.phase ev "parse" 0.25;
  Wide.within ev (fun () ->
      (* each span reads the clock twice, each read steps it by 1 s *)
      Span.with_ "a" (fun () ->
          Span.with_ "b" ignore;
          Span.with_ "b" (fun () -> Span.with_ "c" ignore));
      Span.with_ "d" ignore);
  Wide.phase ev "parse" 0.25;
  (* outside the root: no phase *)
  Span.with_ "outside" ignore;
  Wide.finish ev;
  match read () with
  | [ record ] -> (
      match Json.member "phases" record with
      | Some (Json.Obj phases) ->
          let got = List.map (fun (k, v) -> (k, Option.get (Json.to_float v))) phases in
          Alcotest.(check (list (pair string (float 0.))))
            "dotted, summed, sorted"
            [ ("a", 7.); ("a.b", 4.); ("a.b.c", 1.); ("d", 1.); ("parse", 0.5) ]
            got
      | _ -> Alcotest.fail "no phases object")
  | records -> Alcotest.failf "expected 1 record, got %d" (List.length records)

(* With no sink installed a span costs a flag test: it must not even
   read the clock, and neither may a wide event or its root. *)
let test_span_no_sink_reads_no_clock () =
  Trace.uninstall Trace.spans;
  Trace.uninstall Trace.wide;
  let reads = ref 0 in
  Core.set_clock (fun () ->
      incr reads;
      float_of_int !reads);
  Fun.protect ~finally:Core.default_clock @@ fun () ->
  let ev = Wide.start ~kind:"ghost" () in
  let v =
    Wide.within ev (fun () ->
        Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> 5)))
  in
  Wide.finish ev;
  Alcotest.(check int) "value through" 5 v;
  Alcotest.(check int) "no clock reads" 0 !reads;
  (* the counter itself works: a traced span reads the clock twice *)
  let sink, _ = Trace.memory () in
  Trace.install Trace.spans sink;
  Fun.protect ~finally:(fun () -> Trace.uninstall Trace.spans) (fun () ->
      Span.with_ "traced" ignore);
  Alcotest.(check int) "traced span reads twice" 2 !reads

let test_wide_fresh_trace_ids () =
  let a = Wide.fresh_trace_id () in
  let b = Wide.fresh_trace_id () in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "non-empty" true (a <> "" && b <> "")

(* ------------------------------------------------------------------ *)
(* Slo                                                                 *)
(* ------------------------------------------------------------------ *)

let slo_cfg ?(target = 0.9) ?latency windows bucket =
  {
    Slo.objective = { Slo.name = "t"; target; latency_s = latency };
    windows_s = windows;
    bucket_s = bucket;
  }

let test_slo_validation () =
  List.iter
    (fun cfg ->
      match Slo.create ~cfg () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "config accepted: %s" cfg.Slo.objective.name)
    [
      slo_cfg ~target:0. [ 60. ] 5.;
      slo_cfg ~target:1. [ 60. ] 5.;
      slo_cfg [] 5.;
      slo_cfg [ 60. ] 0.;
      slo_cfg [ 2. ] 5. (* window shorter than a bucket *);
    ];
  ignore (Slo.create ())

let test_slo_burn_rates () =
  (* target 0.9 => error budget 0.1. 30 good units in [0,30), then 10
     bad units in [30,40): at now=40 the 10s window is all bad
     (burn 10x) while the 40s window has error rate 0.25 (burn 2.5x). *)
  let t = Slo.create ~cfg:(slo_cfg [ 10.; 40. ] 1.) () in
  for i = 0 to 29 do
    Slo.record ~now:(float_of_int i +. 0.5) t ~ok:true ~latency_s:0.01
  done;
  for i = 30 to 39 do
    Slo.record ~now:(float_of_int i +. 0.5) t ~ok:false ~latency_s:0.01
  done;
  let now = 40. in
  Alcotest.(check (pair int int)) "fast counts" (0, 10) (Slo.counts ~now t ~window_s:10.);
  Alcotest.(check (pair int int)) "slow counts" (30, 40) (Slo.counts ~now t ~window_s:40.);
  Alcotest.(check (float 1e-9)) "fast error rate" 1. (Slo.error_rate ~now t ~window_s:10.);
  Alcotest.(check (float 1e-9)) "fast burn" 10. (Slo.burn_rate ~now t ~window_s:10.);
  Alcotest.(check (float 1e-9)) "slow burn" 2.5 (Slo.burn_rate ~now t ~window_s:40.);
  Alcotest.(check bool) "burning at 2x" true (Slo.burning ~now t ~threshold:2.);
  Alcotest.(check bool) "not burning at 3x (slow window)" false
    (Slo.burning ~now t ~threshold:3.);
  (* Buckets expire: far in the future every window is empty again. *)
  Alcotest.(check (pair int int)) "expired" (0, 0)
    (Slo.counts ~now:10_000. t ~window_s:40.);
  Alcotest.(check (float 1e-9)) "empty window burns 0" 0.
    (Slo.burn_rate ~now:10_000. t ~window_s:40.)

let test_slo_latency_objective () =
  (* ok with latency above the bound counts against the objective *)
  let t = Slo.create ~cfg:(slo_cfg ~latency:0.1 [ 10. ] 1.) () in
  Slo.record ~now:1. t ~ok:true ~latency_s:0.01;
  Slo.record ~now:2. t ~ok:true ~latency_s:0.5;
  Slo.record ~now:3. t ~ok:false ~latency_s:0.01;
  Alcotest.(check (pair int int)) "slow success is bad" (1, 3)
    (Slo.counts ~now:4. t ~window_s:10.);
  match Slo.quantile ~now:4. t ~window_s:10. 0.5 with
  | Some q -> Alcotest.(check bool) "median in latency bucket" true (q > 0.005 && q < 0.65)
  | None -> Alcotest.fail "expected a quantile"

let test_slo_json_shape () =
  let t = Slo.create ~cfg:(slo_cfg [ 10.; 40. ] 1.) () in
  Slo.record ~now:1. t ~ok:true ~latency_s:0.01;
  let j = Slo.to_json ~now:2. t in
  Alcotest.(check string) "objective name" "t" (get_str "objective" j);
  match Json.member "windows" j with
  | Some (Json.List ws) ->
      Alcotest.(check int) "one entry per window" 2 (List.length ws);
      List.iter
        (fun w ->
          Alcotest.(check int) "total" 1 (get_int "total" w);
          Alcotest.(check int) "good" 1 (get_int "good" w))
        ws;
      Alcotest.(check bool) "empty quantile is null" true
        (Json.member "p99_s" (List.hd ws) <> None)
  | _ -> Alcotest.fail "expected windows list"

(* ------------------------------------------------------------------ *)
(* Sink atomicity from pool worker domains (JSONL whole-line writes)   *)
(* ------------------------------------------------------------------ *)

let read_jsonl path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev_map
    (fun line ->
      match Json.of_string line with
      | j -> j
      | exception Json.Parse_error _ -> Alcotest.failf "torn line: %s" line)
    !lines

let with_pool_and_file name f =
  let path = Filename.temp_file name ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () -> f pool path

let test_trace_sink_atomic_from_pool () =
  with_pool_and_file "qp_obs_pool_trace" @@ fun pool path ->
  let n = 200 in
  Fun.protect ~finally:(fun () -> Trace.uninstall Trace.spans) (fun () ->
      Trace.install Trace.spans (Trace.to_file path);
      Trace.header Trace.spans [];
      ignore
        (Pool.parallel_map pool
           (fun i -> Span.with_ (Printf.sprintf "job-%d" i) ignore)
           (Array.init n Fun.id)));
  let records = read_jsonl path in
  (* every record is a complete line and nothing was lost *)
  Alcotest.(check int) "all records present" (n + 1) (List.length records);
  Alcotest.(check int) "all spans" n
    (List.length (List.filter (fun r -> get_str "type" r = "span") records))

let test_wide_sink_atomic_from_pool () =
  with_pool_and_file "qp_obs_pool_wide" @@ fun pool path ->
  let n = 200 in
  Fun.protect ~finally:(fun () -> Trace.uninstall Trace.wide) (fun () ->
      Trace.install Trace.wide (Trace.to_file path);
      Trace.header Trace.wide [];
      ignore
        (Pool.parallel_map pool
           (fun i ->
             let ev = Wide.start ~kind:"pool_job" () in
             Wide.set_int ev "i" i;
             Wide.within ev (fun () ->
                 Span.with_ "work" (fun () -> ignore (Sys.opaque_identity (i * i))));
             Wide.finish ev)
           (Array.init n Fun.id)));
  let records = read_jsonl path in
  Alcotest.(check int) "all records present" (n + 1) (List.length records);
  let wides = List.filter (fun r -> get_str "type" r = "wide") records in
  Alcotest.(check int) "all wide events" n (List.length wides);
  (* each job's record arrived exactly once *)
  let seen = List.sort compare (List.map (get_int "i") wides) in
  Alcotest.(check bool) "every index once" true (seen = List.init n Fun.id)

(* JSONL files that dune rules write beside the test runner. *)
let read_jsonl name =
  let path = List.find Sys.file_exists [ name; "_build/default/test/" ^ name ] in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map Json.of_string

(* `qplace churn --trace` (a dune rule writes churn_trace.jsonl beside
   the test runner): the lp solve of the run_lp prelude shared by
   simulate, faults, resilience and churn runs under a "solve" span, as
   `qplace solve` does, so no qpp_solve span is a root of the trace. *)
let test_churn_trace_solve_has_parent () =
  let records = read_jsonl "churn_trace.jsonl" in
  let named name j =
    Json.member "type" j = Some (Json.String "span")
    && Json.member "name" j = Some (Json.String name)
  in
  let solves = List.filter (named "qpp_solve") records in
  Alcotest.(check bool) "the trace has qpp_solve spans" true (solves <> []);
  List.iter
    (fun j ->
      Alcotest.(check bool) "qpp_solve has a parent" true
        (Json.member "parent" j <> Some Json.Null))
    solves;
  Alcotest.(check bool) "the prelude solve is under a solve span" true
    (List.exists (named "solve") records)

(* `qplace solve --alg auto` on a tree (a dune rule writes
   tree_wide.jsonl and tree_trace.jsonl beside the test runner): the
   tree solver's check and search are spans, so the wide record splits
   the solve into them, and the search span carries its work counts
   (the values of the pinned golden solve_tree.json detail). *)

let test_tree_solve_phases () =
  let wides =
    List.filter
      (fun j -> Json.member "type" j = Some (Json.String "wide"))
      (read_jsonl "tree_wide.jsonl")
  in
  Alcotest.(check int) "one solve record" 1 (List.length wides);
  let phases =
    match Json.member "phases" (List.hd wides) with
    | Some (Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " is a phase") true (List.mem k phases))
    [ "build"; "solve"; "solve.tree_check"; "solve.tree_search" ];
  let search =
    List.filter
      (fun j -> Json.member "name" j = Some (Json.String "tree_search"))
      (read_jsonl "tree_trace.jsonl")
  in
  Alcotest.(check int) "one tree_search span" 1 (List.length search);
  let attr k =
    match Json.member "attrs" (List.hd search) with
    | Some a -> Json.member k a
    | None -> None
  in
  Alcotest.(check bool) "search_nodes" true (attr "search_nodes" = Some (Json.Int 87));
  Alcotest.(check bool) "m_pairs" true (attr "m_pairs" = Some (Json.Int 91))

(* `qplace scenario --wide-events` (a dune rule writes
   scenario_wide.jsonl beside the test runner): the run is one
   "scenario" record whose phases split it into the runner's solve,
   delay evaluation and simulation, with the solver's and the
   simulator's own spans beneath. *)

let test_scenario_phases () =
  let wides =
    List.filter
      (fun j -> Json.member "type" j = Some (Json.String "wide"))
      (read_jsonl "scenario_wide.jsonl")
  in
  Alcotest.(check int) "one record" 1 (List.length wides);
  let r = List.hd wides in
  Alcotest.(check bool) "kind" true (Json.member "kind" r = Some (Json.String "scenario"));
  Alcotest.(check bool) "outcome" true (Json.member "outcome" r = Some (Json.String "ok"));
  let phases =
    match Json.member "phases" r with
    | Some (Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " is a phase") true (List.mem k phases))
    [ "solve"; "solve.qpp_solve"; "delay_eval"; "simulate";
      "simulate.access_sim_run" ]

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite -> null" `Quick test_json_nonfinite_is_null;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        QCheck_alcotest.to_alcotest prop_float_repr_matches_printf;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter/gauge" `Quick test_counter_gauge;
        Alcotest.test_case "remove series" `Quick test_remove_series;
        Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "quantile brackets percentile" `Quick
          test_quantile_brackets_percentile;
        Alcotest.test_case "quantile degenerate" `Quick test_quantile_degenerate;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "disabled registry no-op" `Quick test_disabled_registry_noop;
        Alcotest.test_case "prometheus text" `Quick test_prometheus_text;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "span nesting and order" `Quick test_span_nesting_and_order;
        Alcotest.test_case "span exception" `Quick test_span_exception;
        Alcotest.test_case "tracing off no-op" `Quick test_tracing_off_noop;
        Alcotest.test_case "jsonl file sink" `Quick test_jsonl_file_sink;
        Alcotest.test_case "churn trace: solve has a parent" `Quick
          test_churn_trace_solve_has_parent;
      ] );
    ( "obs.wide",
      [
        Alcotest.test_case "record shape" `Quick test_wide_record_shape;
        Alcotest.test_case "off no-op" `Quick test_wide_off_noop;
        Alcotest.test_case "spans roll up into phases" `Quick test_wide_span_phases;
        Alcotest.test_case "no sink reads no clock" `Quick
          test_span_no_sink_reads_no_clock;
        Alcotest.test_case "fresh trace ids" `Quick test_wide_fresh_trace_ids;
        Alcotest.test_case "tree solve splits into check and search" `Quick
          test_tree_solve_phases;
        Alcotest.test_case "scenario splits into solve, delay eval and simulation"
          `Quick test_scenario_phases;
      ] );
    ( "obs.slo",
      [
        Alcotest.test_case "validation" `Quick test_slo_validation;
        Alcotest.test_case "burn rates and windows" `Quick test_slo_burn_rates;
        Alcotest.test_case "latency objective" `Quick test_slo_latency_objective;
        Alcotest.test_case "json shape" `Quick test_slo_json_shape;
      ] );
    ( "obs.sinks",
      [
        Alcotest.test_case "trace sink atomic from pool" `Quick
          test_trace_sink_atomic_from_pool;
        Alcotest.test_case "wide sink atomic from pool" `Quick
          test_wide_sink_atomic_from_pool;
      ] );
  ]
