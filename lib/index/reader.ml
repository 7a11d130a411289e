(* The read side mmaps the whole file once, validates everything the
   header claims (magic, version, exact size, checksum) before trusting
   a single record, and then answers lookups by binary search directly
   over the mapping — no per-lookup allocation beyond the result array.

   The fd is closed right after mapping; the mapping itself stays valid
   until the bigarray is GC'd, so a reader swapped out by a reload keeps
   answering in-flight lookups from the old bytes. *)

type t = {
  map : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  generation : int;
  record_count : int;
  key_width : int;
  value_count : int;
  meta : string;
  records_off : int;
  record_size : int;
}

let generation t = t.generation
let record_count t = t.record_count
let key_width t = t.key_width
let value_count t = t.value_count
let meta t = t.meta

let get_u8 map off = Char.code (Bigarray.Array1.get map off)

let get_u32 map off =
  get_u8 map off
  lor (get_u8 map (off + 1) lsl 8)
  lor (get_u8 map (off + 2) lsl 16)
  lor (get_u8 map (off + 3) lsl 24)

let get_i64 map off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 map (off + i)))
  done;
  !v

let validate path size map =
  let magic =
    String.init 4 (fun i -> Bigarray.Array1.get map (Format.off_magic + i))
  in
  if not (String.equal magic Format.magic) then
    Error (Printf.sprintf "%s: bad magic (not an rv_index file)" path)
  else
    let version = get_u32 map Format.off_version in
    if version <> Format.version then
      Error
        (Printf.sprintf
           "%s: format version %d not supported (this build reads v%d)" path
           version Format.version)
    else
      let generation = Int64.to_int (get_i64 map Format.off_generation) in
      let record_count = Int64.to_int (get_i64 map Format.off_record_count) in
      let key_width = get_u32 map Format.off_key_width in
      let value_count = get_u32 map Format.off_value_count in
      let meta_len = get_u32 map Format.off_meta_len in
      let reserved_zero =
        let ok = ref true in
        for i = Format.reserved_off to Format.header_size - 1 do
          if get_u8 map i <> 0 then ok := false
        done;
        !ok
      in
      let records_off = Format.header_size + Format.round8 meta_len in
      let record_size = key_width + (8 * value_count) in
      if
        generation < 0 || record_count < 0 || record_count > size
        || key_width <= 0
        || key_width mod 8 <> 0
        || value_count < 0 || meta_len < 0
        || meta_len > Format.max_meta_len
        || records_off > size || record_size <= 0
      then Error (Printf.sprintf "%s: corrupt header" path)
      else if not reserved_zero then
        Error (Printf.sprintf "%s: corrupt header (reserved bytes not zero)" path)
      else if records_off + (record_count * record_size) <> size then
        Error
          (Printf.sprintf
             "%s: truncated or oversized (header implies %d bytes, file has %d)"
             path
             (records_off + (record_count * record_size))
             size)
      else
        let declared = get_i64 map Format.off_checksum in
        let actual =
          Format.fnv64
            (fun i -> Bigarray.Array1.get map (Format.header_size + i))
            (size - Format.header_size)
        in
        if not (Int64.equal declared actual) then
          Error (Printf.sprintf "%s: checksum mismatch (file corrupt)" path)
        else
          let meta =
            String.init meta_len (fun i ->
                Bigarray.Array1.get map (Format.header_size + i))
          in
          Ok
            {
              map;
              generation;
              record_count;
              key_width;
              value_count;
              meta;
              records_off;
              record_size;
            }

let open_ path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd -> (
      let finish r =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        r
      in
      try
        let size = (Unix.fstat fd).Unix.st_size in
        if size < Format.header_size then
          finish
            (Error
               (Printf.sprintf "%s: truncated (%d bytes, header needs %d)" path
                  size Format.header_size))
        else
          let g =
            Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]
          in
          finish (validate path size (Bigarray.array1_of_genarray g))
      with
      | Unix.Unix_error (e, fn, _) ->
          finish
            (Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e)))
      | Sys_error msg -> finish (Error (Printf.sprintf "%s: %s" path msg)))

(* --- lookups ------------------------------------------------------------ *)

(* Compare [probe] against the padded key at [off], from byte [j] on.
   The probe is virtually NUL-padded, so this is exactly memcmp on
   fixed-width keys, which (NUL sorting first) agrees with Key.compare
   on the originals. *)
let rec compare_key t probe off j =
  if j >= t.key_width then 0
  else
    let pc =
      if j < String.length probe then Char.code (String.unsafe_get probe j)
      else 0
    in
    let mc = Char.code (Bigarray.Array1.unsafe_get t.map (off + j)) in
    if pc = mc then compare_key t probe off (j + 1) else Int.compare pc mc

(* Little-endian 64-bit read as a native int, no Int64 boxing (this is
   the per-lookup hot path; values are OCaml ints by construction, so
   sign-extending byte 7 loses nothing). *)
let get_int_le map off =
  let b i = Char.code (Bigarray.Array1.unsafe_get map (off + i)) in
  let low =
    b 0
    lor (b 1 lsl 8)
    lor (b 2 lsl 16)
    lor (b 3 lsl 24)
    lor (b 4 lsl 32)
    lor (b 5 lsl 40)
    lor (b 6 lsl 48)
  in
  let hi = b 7 in
  let hi = if hi >= 0x80 then hi - 0x100 else hi in
  (hi lsl 56) lor low

let values_at t i =
  let off = t.records_off + (i * t.record_size) + t.key_width in
  Array.init t.value_count (fun j -> get_int_le t.map (off + (8 * j)))

let key_at t i =
  let off = t.records_off + (i * t.record_size) in
  let len = ref 0 in
  while !len < t.key_width && get_u8 t.map (off + !len) <> 0 do
    incr len
  done;
  String.init !len (fun j -> Bigarray.Array1.get t.map (off + j))

(* The index of the record whose key is [probe] among records
   [lo, hi), or -1: a binary search that allocates nothing. *)
let rec search t probe lo hi =
  if lo >= hi then -1
  else
    let mid = lo + ((hi - lo) / 2) in
    let c = compare_key t probe (t.records_off + (mid * t.record_size)) 0 in
    if c = 0 then mid
    else if c < 0 then search t probe lo mid
    else search t probe (mid + 1) hi

let lookup t probe =
  if String.length probe > t.key_width then None
  else
    let i = search t probe 0 t.record_count in
    if i < 0 then None else Some (values_at t i)

let entries t = List.init t.record_count (fun i -> (key_at t i, values_at t i))
