(* A value computed once, by whichever domain asks first; the others
   wait on the lock and read it. *)
type 'a once = { lock : Mutex.t; cell : 'a option Atomic.t }

let once () = { lock = Mutex.create (); cell = Atomic.make None }

let force o compute =
  match Atomic.get o.cell with
  | Some v -> v
  | None ->
    Mutex.protect o.lock (fun () ->
        match Atomic.get o.cell with
        | Some v -> v
        | None ->
          let v = compute () in
          Atomic.set o.cell (Some v);
          v)

type grams = {
  gram_dict : Gram_dict.t;
  positional : int array array;  (* per code: gram ids in string order *)
}

type words = {
  word_dict : Gram_dict.t;
  word_rows : int array array;  (* per code: word ids in string order *)
}

type t = {
  values : Gram_dict.t;
  codes : int array;
  grams : grams once;
  words : words once;
}

(* Each cell is a document of at most one token, its string: interning
   them gives the dictionary of distinct strings and each row's code. *)
let make cells =
  let values, ids =
    Gram_dict.of_docs (Array.map (function None -> [] | Some s -> [ s ]) cells)
  in
  {
    values;
    codes = Array.map (fun ids -> if Array.length ids = 0 then -1 else ids.(0)) ids;
    grams = once ();
    words = once ();
  }

let size t = Gram_dict.size t.values
let values t = t.values
let code t i = t.codes.(i)

(* Each distinct string's tokens interned in one pass over the column
   ([Gram_dict.of_docs]): the ids follow the tokens' string order. *)
let tokenize t tokens =
  Gram_dict.of_docs (Array.init (size t) (fun c -> tokens (Gram_dict.gram t.values c)))

let grams_of t =
  force t.grams (fun () ->
      let gram_dict, positional = tokenize t Tokenize.trigrams in
      { gram_dict; positional })

let words_of t =
  force t.words (fun () ->
      let word_dict, word_rows = tokenize t Tokenize.words in
      { word_dict; word_rows })

let grams t = (grams_of t).gram_dict
let positional t c = (grams_of t).positional.(c)
let words t = (words_of t).word_dict

(* How often each code occurs among the rows. *)
let multiplicities ?rows t =
  let mult = Array.make (size t) 0 in
  let count c = if c >= 0 then mult.(c) <- mult.(c) + 1 in
  (match rows with
  | None -> Array.iter count t.codes
  | Some rows -> Array.iter (fun i -> count t.codes.(i)) rows);
  mult

(* The ids marked in [acc] between [lo] and [hi], ascending. *)
let read_back acc ~lo ~hi ~n f =
  let out = Array.make n 0 in
  let k = ref 0 in
  for id = lo to hi do
    if acc.(id) <> 0 then begin
      f !k id;
      out.(!k) <- id;
      incr k
    end
  done;
  out

(* Each occurrence of a gram in a code's string adds the code's
   multiplicity to the gram's count. *)
let gram_counts ?rows t =
  let g = grams_of t in
  let mult = multiplicities ?rows t in
  let acc = Array.make (Gram_dict.size g.gram_dict) 0 in
  let lo = ref (Array.length acc) and hi = ref (-1) and distinct = ref 0 in
  Array.iteri
    (fun c m ->
      if m > 0 then
        Array.iter
          (fun id ->
            if acc.(id) = 0 then begin
              incr distinct;
              if id < !lo then lo := id;
              if id > !hi then hi := id
            end;
            acc.(id) <- acc.(id) + m)
          g.positional.(c))
    mult;
  let counts = Array.make !distinct 0 in
  let ids = read_back acc ~lo:!lo ~hi:!hi ~n:!distinct (fun k id -> counts.(k) <- acc.(id)) in
  (ids, counts)

let profile t =
  let ids, counts = gram_counts t in
  let dict = grams t in
  Profile.of_counts (Array.mapi (fun k id -> (Gram_dict.gram dict id, counts.(k))) ids)

let value_ids ?rows t =
  let mult = multiplicities ?rows t in
  let n = Array.fold_left (fun n m -> if m > 0 then n + 1 else n) 0 mult in
  read_back mult ~lo:0 ~hi:(Array.length mult - 1) ~n (fun _ _ -> ())

let word_ids ?rows t =
  let w = words_of t in
  let mult = multiplicities ?rows t in
  let marks = Array.make (Gram_dict.size w.word_dict) 0 in
  let n = ref 0 in
  Array.iteri
    (fun c m ->
      if m > 0 then
        Array.iter
          (fun id ->
            if marks.(id) = 0 then begin
              marks.(id) <- 1;
              incr n
            end)
          w.word_rows.(c))
    mult;
  read_back marks ~lo:0 ~hi:(Array.length marks - 1) ~n:!n (fun _ _ -> ())
