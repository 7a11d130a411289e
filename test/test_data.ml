(* Test data (golden/, fixtures/) from either working directory: test/,
   where `dune runtest` runs the suites (in _build/default/test), or the
   repository root (`dune exec test/test_serve.exe`).  Both resolve to
   the source tree when run by hand, so RV_UPDATE_GOLDEN=1 rewrites the
   committed file. *)
let path rel = if Sys.file_exists rel then rel else Filename.concat "test" rel
