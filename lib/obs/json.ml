(* Minimal JSON tree, serializer and parser — just enough for JSONL
   traces, metric dumps and the bench artifact, with no external
   dependency. Numbers are split into [Int] and [Float]; non-finite
   floats serialize as [null] (JSON has no representation for them, and
   the metrics layer rejects non-finite observations anyway). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C primitive that Printf's [%g] conversions reduce to; called
   directly it gives the same bytes without interpreting a format. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* Shortest representation that still round-trips. *)
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent)                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    && match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.s then fail cur "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub cur.s cur.pos 4) in
  cur.pos <- cur.pos + 4;
  v

(* Encode a Unicode scalar value as UTF-8. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
        advance cur;
        (match peek cur with
        | Some '"' -> advance cur; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance cur; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance cur; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance cur;
            let hi = parse_hex4 cur in
            let code =
              (* Surrogate pair. *)
              if hi >= 0xD800 && hi <= 0xDBFF then begin
                expect cur '\\';
                expect cur 'u';
                let lo = parse_hex4 cur in
                if lo < 0xDC00 || lo > 0xDFFF then fail cur "invalid low surrogate";
                0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else hi
            in
            add_utf8 buf code;
            go ()
        | _ -> fail cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos] do
    advance cur
  done;
  let text = String.sub cur.s start (cur.pos - start) in
  if text = "" then fail cur "expected number";
  let is_float =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
  in
  if is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string_body cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; items (v :: acc)
          | Some ']' -> advance cur; List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; fields (kv :: acc)
          | Some '}' -> advance cur; List.rev (kv :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some _ -> parse_number cur

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None
