type t = bool array

let of_int n =
  if n < 1 then invalid_arg "Bitseq.of_int: n must be >= 1";
  let rec bits acc n = if n = 0 then acc else bits ((n land 1 = 1) :: acc) (n lsr 1) in
  Array.of_list (bits [] n)

let to_int bits =
  if Array.length bits = 0 then invalid_arg "Bitseq.to_int: empty";
  Array.fold_left
    (fun acc b ->
      if acc > (max_int - 1) / 2 then invalid_arg "Bitseq.to_int: overflow";
      (2 * acc) + if b then 1 else 0)
    0 bits

let of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> invalid_arg (Printf.sprintf "Bitseq.of_string: bad char %c" c))

let to_string bits =
  String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')

let is_prefix p s =
  let lp = Array.length p in
  lp <= Array.length s
  &&
  let rec check i = i >= lp || (p.(i) = s.(i) && check (i + 1)) in
  check 0

let compare_lex a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else if a.(i) = b.(i) then go (i + 1)
    else if b.(i) then -1
    else 1
  in
  go 0

let append_bits bits extra = Array.append bits (Array.of_list extra)

let double_each bits =
  Array.init (2 * Array.length bits) (fun i -> bits.(i / 2))
