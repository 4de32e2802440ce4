open Echo_tensor

type t = {
  tokens : int array;
  vocab : int;
  words : string array;  (** id -> word; empty for synthetic streams *)
}

(* Zipf sampling via inverse-CDF over 1/rank weights, with a first-order
   Markov twist: with probability 0.3 the next token is a deterministic
   function of the current one, which gives an LSTM something to learn. *)
let generate ~seed ~vocab ~length =
  if vocab < 2 then invalid_arg "Corpus.generate: vocab < 2";
  let rng = Rng.create seed in
  let weights = Array.init vocab (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make vocab 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  let sample () =
    let u = Rng.float rng in
    let rec find lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
      end
    in
    find 0 (vocab - 1)
  in
  let tokens = Array.make length 0 in
  for i = 1 to length - 1 do
    tokens.(i) <-
      (if Rng.float rng < 0.3 then ((tokens.(i - 1) * 7) + 3) mod vocab
       else sample ())
  done;
  { tokens; vocab; words = [||] }

(* PTB-style ingest: the file is a word stream, one sentence per line, words
   blank-separated; every line is closed with the "<eos>" token (id 0), and
   word ids are assigned in order of first appearance — the dictionary is a
   pure function of the file contents, so two processes loading the same
   file build bit-identical batch streams. *)
let load_text path =
  let ic =
    try open_in path
    with Sys_error msg -> invalid_arg ("Corpus.load_text: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let dict : (string, int) Hashtbl.t = Hashtbl.create 1024 in
      Hashtbl.replace dict "<eos>" 0;
      let words = ref [ "<eos>" ] in
      let next = ref 1 in
      let toks = ref [] in
      let id_of w =
        match Hashtbl.find_opt dict w with
        | Some i -> i
        | None ->
          let i = !next in
          Hashtbl.replace dict w i;
          words := w :: !words;
          incr next;
          i
      in
      (try
         while true do
           let line = input_line ic in
           List.iter
             (fun w -> if w <> "" then toks := id_of w :: !toks)
             (String.split_on_char ' '
                (String.map (fun c -> if c = '\t' then ' ' else c) line));
           toks := 0 :: !toks
         done
       with
      | End_of_file -> ()
      | Sys_error msg ->
        (* open_in accepts a directory; reading it fails *)
        invalid_arg (Printf.sprintf "Corpus.load_text: %s: %s" path msg));
      if !next < 2 then
        invalid_arg
          (Printf.sprintf
             "Corpus.load_text: %s contains no words — a text corpus needs \
              at least one non-blank line"
             path);
      {
        tokens = Array.of_list (List.rev !toks);
        vocab = !next;
        words = Array.of_list (List.rev !words);
      })

let vocab t = t.vocab
let length t = Array.length t.tokens
let token t i = t.tokens.(i)
let vocab_words t = t.words

(* Time-major layout: row (t*B + b) holds stream position for sequence b at
   step t. Sequence b reads a distinct stripe of the stream. *)
let lm_batches t ~batch ~seq_len ~steps =
  let stripe = (length t - 1) / batch in
  if stripe < seq_len * steps then invalid_arg "Corpus.lm_batches: stream too short";
  List.init steps (fun s ->
    let base = s * seq_len in
    let at tt b = t.tokens.((b * stripe) + base + tt) in
    let tokens =
      Tensor.init [| seq_len * batch |] (fun idx ->
        let row = idx.(0) in
        float_of_int (at (row / batch) (row mod batch)))
    in
    let labels =
      Tensor.init [| seq_len * batch |] (fun idx ->
        let row = idx.(0) in
        float_of_int (at ((row / batch) + 1) (row mod batch)))
    in
    (tokens, labels))

let ids_of stream ~batch ~len ~step =
  let stripe = (length stream - 1) / batch in
  if stripe < 1 then invalid_arg "Corpus: stream too short";
  Tensor.init [| len * batch |] (fun idx ->
    let row = idx.(0) in
    let t = row / batch and b = row mod batch in
    let pos = (b * stripe) + (((step * len) + t) mod stripe) in
    float_of_int (token stream pos))

let pair_batches ~src ~tgt ~batch ~src_len ~tgt_len ~steps =
  List.init steps (fun s ->
    let src_ids = ids_of src ~batch ~len:src_len ~step:s in
    let tgt_in = ids_of tgt ~batch ~len:tgt_len ~step:s in
    let labels = ids_of tgt ~batch ~len:tgt_len ~step:(s + 1) in
    (src_ids, tgt_in, labels))

let spectrogram_batches ~seed ~batch ~time ~freq ~classes ~frames ~steps =
  let rng = Rng.create seed in
  List.init steps (fun _ ->
    let spec =
      Tensor.init [| batch; 1; time; freq |] (fun idx ->
        (* A noisy harmonic ridge so convolution has structure to find. *)
        let t = float_of_int idx.(2) and f = float_of_int idx.(3) in
        (0.5 *. sin ((t /. 7.0) +. (f /. 3.0))) +. (0.1 *. Rng.normal rng))
    in
    let align =
      Tensor.init [| frames * batch |] (fun _ -> float_of_int (Rng.int rng classes))
    in
    (spec, align))
