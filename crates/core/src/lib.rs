//! # CookiePicker — automatic cookie usage setting
//!
//! The core of the DSN 2007 paper *"Automatic Cookie Usage Setting with
//! CookiePicker"*: a browser extension that decides, **fully automatically**,
//! which first-party persistent cookies of a Web site are useful, enables
//! those, and disables (and eventually removes) the rest.
//!
//! The mechanism (§3): when the user views a page, CookiePicker issues one
//! extra *hidden request* for the container page with the cookies under test
//! stripped, builds the hidden DOM with the same parser, and compares the
//! two versions with two complementary detectors:
//!
//! * [`decision::decide`] — Figure 5's decision algorithm over
//!   [`cp_treediff::n_tree_sim`] (RSTM, Formula 2) and
//!   [`cvce::n_text_sim`] (CVCE, Formula 3);
//! * if **both** similarities fall at or below their thresholds (0.85 in the
//!   paper), the difference is attributed to the disabled cookies and the
//!   whole test group is marked useful (§3.2, step 5).
//!
//! [`picker::CookiePicker`] packages this as a
//! [`cp_browser::BrowserExtension`]; [`forcum`] implements the per-site
//! training lifecycle; [`recovery`] the backward-error-recovery button.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cookiepicker_core::{CookiePicker, CookiePickerConfig, TestGroupStrategy};
//! use cp_browser::Browser;
//! use cp_cookies::CookiePolicy;
//! use cp_net::{SimNetwork, Url};
//! use cp_webworld::{Category, CookieRole, CookieSpec, EffectSize, SiteServer, SiteSpec};
//!
//! // A site with one tracking cookie and one genuinely useful preference cookie.
//! let spec = SiteSpec::new("shop.example", Category::Shopping, 9)
//!     .with_cookie(CookieSpec::tracker("trk"))
//!     .with_cookie(CookieSpec::useful("pref", CookieRole::Preference, EffectSize::Medium));
//! let mut net = SimNetwork::new(2);
//! net.register("shop.example", SiteServer::new(spec));
//!
//! let mut browser = Browser::new(Arc::new(net), CookiePolicy::AcceptAll, 7);
//! // Test one cookie per page view so the tracker cannot piggyback.
//! let mut picker = CookiePicker::new(
//!     CookiePickerConfig::default().with_strategy(TestGroupStrategy::PerCookie),
//! );
//! let url = Url::parse("http://shop.example/").unwrap();
//! for _ in 0..6 {
//!     browser.visit_with(&url, &mut picker).unwrap();
//!     browser.think();
//! }
//! // The preference cookie ends up marked useful; the tracker does not.
//! let marked: Vec<&str> = browser.jar.iter().filter(|c| c.useful()).map(|c| c.name.as_str()).collect();
//! assert_eq!(marked, ["pref"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod cvce;
pub mod decision;
pub mod domview;
pub mod explain;
pub mod forcum;
pub mod names;
pub mod picker;
pub mod probe;
pub mod recovery;
pub mod report;
pub mod tuning;

pub use analysis::PageAnalysis;
pub use config::{CookiePickerConfig, TestGroupStrategy};
pub use cvce::{
    content_compile, content_extract, fnv1a64, n_text_sim, n_text_sim_compiled, n_text_sim_strict,
    n_text_sim_strict_compiled, CompiledContentSet, ContentSet,
};
pub use decision::{decide, decide_analyzed, decide_reference, Decision};
pub use domview::{DomTreeView, IdAwareDomView};
pub use explain::{explain, DiffReport};
pub use forcum::{ForcumState, SiteRecords, SiteTraining};
pub use names::NameSet;
pub use picker::{CookiePicker, DetectionRecord, InconclusiveProbe, TrainingSummary};
pub use probe::{InconclusiveReason, ProbeOutcome, ProbeReport, RetryPolicy};
pub use recovery::RecoveryLog;
pub use tuning::{fit_thresholds, FittedThresholds, SimSample};
