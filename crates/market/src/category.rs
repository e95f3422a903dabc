//! The 28 app-store categories of the 2016 Google Play market.

use std::fmt;

/// A Play Store category. The paper samples the top 100 apps from each of
/// the 28 categories that existed at study time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variant names are self-describing category labels
pub enum Category {
    BooksAndReference,
    Business,
    Comics,
    Communication,
    Education,
    Entertainment,
    Finance,
    Games,
    HealthAndFitness,
    LibrariesAndDemo,
    Lifestyle,
    MediaAndVideo,
    Medical,
    MusicAndAudio,
    NewsAndMagazines,
    Personalization,
    Photography,
    Productivity,
    Shopping,
    Social,
    Sports,
    Tools,
    Transportation,
    TravelAndLocal,
    Weather,
    Widgets,
    Casual,
    Racing,
}

/// All 28 categories in a stable order.
pub const ALL_CATEGORIES: [Category; 28] = [
    Category::BooksAndReference,
    Category::Business,
    Category::Comics,
    Category::Communication,
    Category::Education,
    Category::Entertainment,
    Category::Finance,
    Category::Games,
    Category::HealthAndFitness,
    Category::LibrariesAndDemo,
    Category::Lifestyle,
    Category::MediaAndVideo,
    Category::Medical,
    Category::MusicAndAudio,
    Category::NewsAndMagazines,
    Category::Personalization,
    Category::Photography,
    Category::Productivity,
    Category::Shopping,
    Category::Social,
    Category::Sports,
    Category::Tools,
    Category::Transportation,
    Category::TravelAndLocal,
    Category::Weather,
    Category::Widgets,
    Category::Casual,
    Category::Racing,
];

impl Category {
    /// Lower-case slug suitable for package names.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            Category::BooksAndReference => "books",
            Category::Business => "business",
            Category::Comics => "comics",
            Category::Communication => "communication",
            Category::Education => "education",
            Category::Entertainment => "entertainment",
            Category::Finance => "finance",
            Category::Games => "games",
            Category::HealthAndFitness => "health",
            Category::LibrariesAndDemo => "libraries",
            Category::Lifestyle => "lifestyle",
            Category::MediaAndVideo => "media",
            Category::Medical => "medical",
            Category::MusicAndAudio => "music",
            Category::NewsAndMagazines => "news",
            Category::Personalization => "personalization",
            Category::Photography => "photography",
            Category::Productivity => "productivity",
            Category::Shopping => "shopping",
            Category::Social => "social",
            Category::Sports => "sports",
            Category::Tools => "tools",
            Category::Transportation => "transportation",
            Category::TravelAndLocal => "travel",
            Category::Weather => "weather",
            Category::Widgets => "widgets",
            Category::Casual => "casual",
            Category::Racing => "racing",
        }
    }

    /// How location-hungry apps of this category tend to be, as a relative
    /// weight used when the corpus generator decides which apps declare
    /// location permissions. Travel, weather, transportation and social
    /// apps declare far more often than comics readers.
    #[must_use]
    pub fn location_affinity(&self) -> f64 {
        match self {
            Category::TravelAndLocal | Category::Weather | Category::Transportation => 3.0,
            Category::Social | Category::Lifestyle | Category::Shopping | Category::Sports => 2.0,
            Category::Communication | Category::NewsAndMagazines | Category::HealthAndFitness | Category::Tools => 1.5,
            Category::Business | Category::Finance | Category::Photography | Category::Productivity => 1.0,
            Category::Games | Category::Casual | Category::Racing | Category::Entertainment => 0.8,
            _ => 0.5,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn there_are_28_distinct_categories() {
        let set: BTreeSet<Category> = ALL_CATEGORIES.into_iter().collect();
        assert_eq!(set.len(), 28);
    }

    #[test]
    fn slugs_are_unique_and_lowercase() {
        let slugs: BTreeSet<&str> = ALL_CATEGORIES.iter().map(Category::slug).collect();
        assert_eq!(slugs.len(), 28);
        assert!(slugs.iter().all(|s| s.chars().all(|c| c.is_ascii_lowercase())));
    }

    #[test]
    fn affinities_are_positive() {
        assert!(ALL_CATEGORIES.iter().all(|c| c.location_affinity() > 0.0));
        assert!(Category::TravelAndLocal.location_affinity() > Category::Comics.location_affinity());
    }
}
