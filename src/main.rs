//! The `cookiepicker` CLI entry point. See [`cookiepicker::cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cookiepicker::cli::parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cookiepicker::cli::usage());
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = cookiepicker::cli::run(command, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
