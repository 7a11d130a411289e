type t = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

let make ?(notes = []) ~title ~headers rows =
  let width = List.length headers in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Table.make: row %d has %d cells, expected %d" i
             (List.length row) width))
    rows;
  { title; headers; rows; notes }

let column_widths t =
  let update widths row =
    List.map2 (fun w cell -> max w (String.length cell)) widths row
  in
  List.fold_left update (List.map String.length t.headers) t.rows

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

let render_row widths row =
  "| " ^ String.concat " | " (List.map2 pad widths row) ^ " |"

let separator widths sep_fill =
  "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) sep_fill) widths) ^ "|"

let render_ascii t =
  let widths = column_widths t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (separator widths '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row widths t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (separator widths '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row widths row);
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.add_string buf (separator widths '-');
  Buffer.add_char buf '\n';
  List.iter (fun n -> Buffer.add_string buf ("  " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let render_markdown t =
  let widths = column_widths t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("### " ^ t.title ^ "\n\n");
  Buffer.add_string buf (render_row widths t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (separator widths '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row widths row);
      Buffer.add_char buf '\n')
    t.rows;
  List.iter (fun n -> Buffer.add_string buf ("\n> " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let print t =
  print_string (render_ascii t);
  print_newline ()

let cell_float ?(digits = 2) f = Printf.sprintf "%.*f" digits f

let cell_ratio a b = if Float.equal b 0.0 then "-" else cell_float (a /. b)
