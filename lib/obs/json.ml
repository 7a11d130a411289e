type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Escaping writes straight into the output buffer; the common case — no
   character needs escaping — is a single scan plus one [add_string],
   with no intermediate allocation (serve replies render one of these
   per field, sweep records two per line). *)
let rec needs_escape s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '"' | '\\' -> true
  | c when Char.code c < 0x20 -> true
  | _ -> needs_escape s (i + 1)

let hex_digits = "0123456789abcdef"

let add_escaped b s =
  if not (needs_escape s 0) then Buffer.add_string b s
  else
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex_digits.[Char.code c lsr 4];
          Buffer.add_char b hex_digits.[Char.code c land 0xf]
      | c -> Buffer.add_char b c
    done

let float_to_string f =
  if
    (not (Float.is_finite f))  (* nan and both infinities serialise as 0 *)
    || (Float.is_integer f && Float.abs f > 1e18)
  then "0"
  else if Float.is_integer f then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

(* Serve replies are mostly small non-negative ints; rendering them from
   a fixed table skips the digit loop for each such field. *)
let small_int_strings = Array.init 1024 string_of_int

(* The decimal digits of [n <= 0], most significant first.  Staying on
   the non-positive side covers [min_int], which has no positive
   counterpart; [n mod 10] is then in -9..0. *)
let rec add_nonpositive_digits b n =
  if n <= -10 then add_nonpositive_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int b i =
  if i >= 0 && i < 1024 then Buffer.add_string b (Array.unsafe_get small_int_strings i)
  else if i < 0 then begin
    Buffer.add_char b '-';
    add_nonpositive_digits b i
  end
  else add_nonpositive_digits b (-i)

(* The renderers are top-level functions, not closures over the buffer,
   so rendering a tree allocates nothing beyond the buffer itself. *)
let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> add_int b i
  | Float f -> Buffer.add_string b (float_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List (x :: xs) ->
      Buffer.add_char b '[';
      add_value b x;
      add_items b xs;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (kv :: kvs) ->
      Buffer.add_char b '{';
      add_member b kv;
      add_members b kvs;
      Buffer.add_char b '}'

(* The rest of a list, each item after a comma. *)
and add_items b = function
  | [] -> ()
  | x :: xs ->
      Buffer.add_char b ',';
      add_value b x;
      add_items b xs

and add_member b (k, v) =
  Buffer.add_char b '"';
  add_escaped b k;
  Buffer.add_string b "\":";
  add_value b v

and add_members b = function
  | [] -> ()
  | kv :: kvs ->
      Buffer.add_char b ',';
      add_member b kv;
      add_members b kvs

let to_string t =
  let b = Buffer.create 512 in
  add_value b t;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------ *)

(* One pass over the input through a cursor: look-ahead is a bounds check
   and a byte compare (no option per peek), and a string with no escape
   is cut out with one [String.sub]. *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at position %d" msg c.pos))

(* Whether the next byte is [ch]. *)
let at c ch =
  c.pos < String.length c.s && Char.equal (String.unsafe_get c.s c.pos) ch

let skip_ws c =
  let n = String.length c.s in
  while
    c.pos < n
    && match String.unsafe_get c.s c.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if at c ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected '%c'" ch)

let literal c lit v =
  let l = String.length lit in
  if c.pos + l <= String.length c.s && String.equal (String.sub c.s c.pos l) lit
  then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c ("bad literal, expected " ^ lit)

(* The first quote or backslash in [s] at or after [i]; the length of
   [s] when there is none. *)
let rec plain_end s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_end s (i + 1)

(* Decode the escape whose backslash is just behind [c.pos] into [b]. *)
let add_unescaped c b =
  let n = String.length c.s in
  if c.pos >= n then fail c "unterminated escape";
  let e = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  match e with
  | '"' -> Buffer.add_char b '"'
  | '\\' -> Buffer.add_char b '\\'
  | '/' -> Buffer.add_char b '/'
  | 'n' -> Buffer.add_char b '\n'
  | 'r' -> Buffer.add_char b '\r'
  | 't' -> Buffer.add_char b '\t'
  | 'b' -> Buffer.add_char b '\b'
  | 'f' -> Buffer.add_char b '\012'
  | 'u' ->
      if c.pos + 4 > n then fail c "truncated \\u escape";
      let hex = String.sub c.s c.pos 4 in
      c.pos <- c.pos + 4;
      let code =
        try int_of_string ("0x" ^ hex) with _ -> fail c ("bad \\u escape " ^ hex)
      in
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else fail c "non-ASCII \\u escapes are not supported"
  | e -> fail c (Printf.sprintf "unknown escape \\%c" e)

(* The rest of a string that holds escapes, up to its closing quote:
   plain runs are copied whole, escapes decoded one at a time. *)
let rec add_string_rest c b =
  let i = plain_end c.s c.pos in
  Buffer.add_substring b c.s c.pos (i - c.pos);
  c.pos <- i;
  if i >= String.length c.s then fail c "unterminated string";
  c.pos <- i + 1;
  if Char.equal (String.unsafe_get c.s i) '"' then Buffer.contents b
  else begin
    add_unescaped c b;
    add_string_rest c b
  end

let parse_string c =
  expect c '"';
  let start = c.pos in
  let i = plain_end c.s start in
  if i < String.length c.s && Char.equal (String.unsafe_get c.s i) '"' then begin
    c.pos <- i + 1;
    String.sub c.s start (i - start)
  end
  else add_string_rest c (Buffer.create (i - start + 16))

let is_digit = function '0' .. '9' -> true | _ -> false

let digits c =
  let n = String.length c.s in
  let d0 = c.pos in
  while c.pos < n && is_digit (String.unsafe_get c.s c.pos) do
    c.pos <- c.pos + 1
  done;
  if c.pos = d0 then fail c "expected digits"

let parse_number c =
  let start = c.pos in
  if at c '-' then c.pos <- c.pos + 1;
  digits c;
  let fractional = at c '.' in
  if fractional then begin
    c.pos <- c.pos + 1;
    digits c
  end;
  let exponent = at c 'e' || at c 'E' in
  if exponent then begin
    c.pos <- c.pos + 1;
    if at c '+' || at c '-' then c.pos <- c.pos + 1;
    digits c
  end;
  let text = String.sub c.s start (c.pos - start) in
  if fractional || exponent then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  if c.pos >= String.length c.s then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (parse_items c [])
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (parse_members c [])
  | ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

and parse_items c acc =
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_items c (v :: acc)
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    List.rev (v :: acc)
  end
  else fail c "expected ',' or ']'"

and parse_members c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_members c ((k, v) :: acc)
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    List.rev ((k, v) :: acc)
  end
  else fail c "expected ',' or '}'"

let parse s =
  let c = { s; pos = 0 } in
  try
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage after document";
    Ok v
  with Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
