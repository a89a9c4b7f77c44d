(* The payload array is created on the first push, filled with that
   push's value, so no dummy ['a] is needed. Sifting moves a hole
   instead of swapping entries; each entry lands where a swap would
   have put it, so the tie rules are those of a swap-based heap. *)
type 'a t = {
  mutable keys : float array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { keys = [||]; vals = [||]; len = 0 }

let is_empty t = t.len = 0

let size t = t.len

let grow t v =
  let cap = Stdlib.max 16 (2 * t.len) in
  let keys = Array.make cap 0. and vals = Array.make cap v in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.vals <- vals

(* [key] stands in for the hole. Strict [<]: an entry never passes a
   parent with an equal key. *)
let sift_up t i key v =
  let keys = t.keys and vals = t.vals in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else moving := false
  done;
  keys.(!i) <- key;
  vals.(!i) <- v

(* [key] stands in for the hole: the left child moves up when strictly
   smaller than [key], the right one when strictly smaller than that,
   so the left child wins equal keys. *)
let sift_down t key v =
  let keys = t.keys and vals = t.vals and len = t.len in
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
      vals.(!i) <- vals.(!c);
      i := !c
    end
  done;
  keys.(!i) <- key;
  vals.(!i) <- v

let push t key v =
  if t.len = Array.length t.keys then grow t v;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) key v

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

let pop t =
  if t.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = t.vals.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t t.keys.(last) t.vals.(last);
  top

let clear t =
  t.keys <- [||];
  t.vals <- [||];
  t.len <- 0
