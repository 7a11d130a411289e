module Json = Rv_obs.Json

type t = {
  graph : string;
  algorithm : string;
  label_a : int;
  label_b : int;
  start_a : int;
  start_b : int;
  delay_a : int;
  delay_b : int;
  met : bool;
  time : int;
  cost : int;
}

(* JSON writing: the fixed template, piece by piece, straight into the
   caller's buffer — the sink's per-record path, which builds no string. *)

let add_json b r =
  Buffer.add_string b {|{"graph":"|};
  Json.add_escaped b r.graph;
  Buffer.add_string b {|","algorithm":"|};
  Json.add_escaped b r.algorithm;
  Buffer.add_string b {|","label_a":|};
  Json.add_int b r.label_a;
  Buffer.add_string b {|,"label_b":|};
  Json.add_int b r.label_b;
  Buffer.add_string b {|,"start_a":|};
  Json.add_int b r.start_a;
  Buffer.add_string b {|,"start_b":|};
  Json.add_int b r.start_b;
  Buffer.add_string b {|,"delay_a":|};
  Json.add_int b r.delay_a;
  Buffer.add_string b {|,"delay_b":|};
  Json.add_int b r.delay_b;
  Buffer.add_string b (if r.met then {|,"met":true,"time":|} else {|,"met":false,"time":|});
  Json.add_int b r.time;
  Buffer.add_string b {|,"cost":|};
  Json.add_int b r.cost;
  Buffer.add_char b '}'

let to_json r =
  let b = Buffer.create 160 in
  add_json b r;
  Buffer.contents b

(* JSON reading: the shared codec, then each field at its exact type — an
   integral float such as [1.0] is not an integer here, and an integer
   literal too large for [int] (parsed as a float) is rejected too. *)

exception Bad of string

let of_json line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok (Json.Obj fields) -> (
      let field k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Bad ("missing field " ^ k))
      in
      let expected k what = raise (Bad (Printf.sprintf "%s: expected %s" k what)) in
      let str k = match field k with Json.Str s -> s | _ -> expected k "a string" in
      let int k = match field k with Json.Int i -> i | _ -> expected k "an integer" in
      let bool k = match field k with Json.Bool b -> b | _ -> expected k "a boolean" in
      try
        Ok
          {
            graph = str "graph";
            algorithm = str "algorithm";
            label_a = int "label_a";
            label_b = int "label_b";
            start_a = int "start_a";
            start_b = int "start_b";
            delay_a = int "delay_a";
            delay_b = int "delay_b";
            met = bool "met";
            time = int "time";
            cost = int "cost";
          }
      with Bad msg -> Error msg)
  | Ok _ -> Error "expected a JSON object"

(* CSV *)

let csv_header =
  "graph,algorithm,label_a,label_b,start_a,start_b,delay_a,delay_b,met,time,cost"

(* A field is quoted when it holds a comma, quote or line break; quotes
   inside are doubled.  (A top-level scan: [String.exists] would build a
   closure per field.) *)
let rec needs_quotes s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | ',' | '"' | '\n' | '\r' -> true
  | _ -> needs_quotes s (i + 1)

let add_csv_field b s =
  if not (needs_quotes s 0) then Buffer.add_string b s
  else begin
    Buffer.add_char b '"';
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string b {|""|}
      | c -> Buffer.add_char b c
    done;
    Buffer.add_char b '"'
  end

let add_csv b r =
  add_csv_field b r.graph;
  Buffer.add_char b ',';
  add_csv_field b r.algorithm;
  Buffer.add_char b ',';
  Json.add_int b r.label_a;
  Buffer.add_char b ',';
  Json.add_int b r.label_b;
  Buffer.add_char b ',';
  Json.add_int b r.start_a;
  Buffer.add_char b ',';
  Json.add_int b r.start_b;
  Buffer.add_char b ',';
  Json.add_int b r.delay_a;
  Buffer.add_char b ',';
  Json.add_int b r.delay_b;
  Buffer.add_string b (if r.met then ",true," else ",false,");
  Json.add_int b r.time;
  Buffer.add_char b ',';
  Json.add_int b r.cost

let to_csv r =
  let b = Buffer.create 64 in
  add_csv b r;
  Buffer.contents b
