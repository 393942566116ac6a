use stem_core::api::only_imported;
