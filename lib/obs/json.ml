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

let to_string t =
  let b = Buffer.create 512 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> add_int b i
    | Float f -> Buffer.add_string b (float_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go t;
  Buffer.contents b

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at position %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal, expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail ("bad \\u escape " ^ hex)
              in
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else fail "non-ASCII \\u escapes are not supported"
          | c -> fail (Printf.sprintf "unknown escape \\%c" c));
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done;
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    let fractional = peek () = Some '.' in
    if fractional then begin
      incr pos;
      digits ()
    end;
    let exponent = match peek () with Some ('e' | 'E') -> true | _ -> false in
    if exponent then begin
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if fractional || exponent then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
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
